package core

import (
	"syscall"
	"unsafe"
)

// hugePage is the size of a transparent huge page on 4 KiB base pages
// (x86-64, and arm64's default).
const hugePage = 2 << 20

// adviseHugePages asks the kernel to back the 2 MiB-aligned interior of
// block's backing array (its capacity, not only its length) with transparent
// huge pages, madvise(MADV_HUGEPAGE), and returns that interior: nil when the
// array holds no whole aligned 2 MiB, or when the kernel refuses the advice
// (one built without THP), which leaves the block on small pages and moves no
// bit. hopLayer.grow gives it each new block before any row is written, so
// the first touch of each 2 MiB faults in one huge page, and a gather that
// hops between rows scattered over the block misses the TLB far less. Nothing
// is over-allocated for alignment: the ragged ends stay on small pages.
func adviseHugePages[E any](block []E) []byte {
	size := uintptr(cap(block)) * unsafe.Sizeof(*new(E))
	if size < hugePage {
		return nil
	}
	base := unsafe.Pointer(unsafe.SliceData(block))
	lo := -uintptr(base) & (hugePage - 1) // bytes up to the first boundary
	n := (size - lo) &^ (hugePage - 1)
	if n == 0 {
		return nil
	}
	b := unsafe.Slice((*byte)(unsafe.Add(base, lo)), n)
	if syscall.Madvise(b, syscall.MADV_HUGEPAGE) != nil {
		return nil
	}
	return b
}
