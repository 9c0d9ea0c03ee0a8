//go:build !linux

package core

// adviseHugePages gives no advice off Linux: the layer's blocks stay on the
// platform's default pages (memo_linux.go has the Linux version).
func adviseHugePages[E any](block []E) []byte { return nil }
