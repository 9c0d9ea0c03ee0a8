package core

import (
	"bufio"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestLayerHugePages: a layer block's 2 MiB-aligned interior is advised onto
// transparent huge pages — the advised range is aligned, lies inside the
// block's backing array and misses less than a huge page at either end; a
// block under 2 MiB is left alone; and a block that grows past its headroom
// is advised again, in its new array. The kernel records each advice: the
// range's mapping carries the hg flag in /proc/self/smaps.
func TestLayerHugePages(t *testing.T) {
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage"); err != nil {
		t.Skip("kernel without transparent huge pages")
	}
	check := func(label string, huge []byte, block []float64) {
		t.Helper()
		if len(huge) == 0 {
			t.Fatalf("%s: nothing advised", label)
		}
		base := uintptr(unsafe.Pointer(unsafe.SliceData(block)))
		end := base + uintptr(cap(block))*8
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(huge)))
		hi := lo + uintptr(len(huge))
		switch {
		case lo%hugePage != 0 || hi%hugePage != 0:
			t.Fatalf("%s: advised [%#x, %#x) is not 2 MiB-aligned", label, lo, hi)
		case lo < base || hi > end:
			t.Fatalf("%s: advised [%#x, %#x) outside the block [%#x, %#x)", label, lo, hi, base, end)
		case lo-base >= hugePage || end-hi >= hugePage:
			t.Fatalf("%s: advised [%#x, %#x) leaves a whole huge page of [%#x, %#x) out", label, lo, hi, base, end)
		}
		for _, at := range []uintptr{lo, hi - 1} {
			if !hugeAdvised(t, at) {
				t.Fatalf("%s: the mapping at %#x has no hg flag", label, at)
			}
		}
	}

	block := make([]float64, 0, (5<<20)/8)
	check("5 MiB block", adviseHugePages(block), block)
	if small := make([]float64, 0, (hugePage-1)/8); adviseHugePages(small) != nil {
		t.Fatal("a block under 2 MiB was advised")
	}

	lay := &hopLayer[float64]{f: 64, stats: &hop1Counters{}}
	lay.grow(8 << 10) // 4 MiB of rows and their headroom
	check("new layer", lay.huge, lay.block)
	first := unsafe.SliceData(lay.huge)
	lay.grow(cap(lay.block)/lay.f + 1)
	check("regrown layer", lay.huge, lay.block)
	if unsafe.SliceData(lay.huge) == first {
		t.Fatal("the regrown layer kept the old block's advice")
	}
}

// hugeAdvised reports whether the mapping holding addr carries the hg
// (MADV_HUGEPAGE) flag in /proc/self/smaps.
func hugeAdvised(t *testing.T, addr uintptr) bool {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if from, to, ok := strings.Cut(fields[0], "-"); ok {
			lo, err1 := strconv.ParseUint(from, 16, 64)
			hi, err2 := strconv.ParseUint(to, 16, 64)
			if err1 == nil && err2 == nil {
				in = uint64(addr) >= lo && uint64(addr) < hi
				continue
			}
		}
		if in && fields[0] == "VmFlags:" {
			return slices.Contains(fields[1:], "hg")
		}
	}
	return false
}
