//go:build unix

package core

import (
	"context"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// BenchmarkInferDeepIdle measures what the process burns once requests
// stop: each op lets the process settle (a GC and a second asleep,
// untimed), serves one warm BenchmarkInferDeepWarm request, then idles for
// a second, and idle-cpu-ms is the process's own CPU time (user + system,
// getrusage) over that second — par's lingering helpers and whatever the
// runtime does in the background. An op takes over two seconds, so the
// default benchtime runs one.
func BenchmarkInferDeepIdle(b *testing.B) {
	fx := deepWarmOnce(b)
	var idle time.Duration
	for i := 0; i < b.N; i++ {
		runtime.GC()
		time.Sleep(time.Second)
		if _, err := fx.dep.InferContext(context.Background(), fx.reqs[i%len(fx.reqs)], fx.opt); err != nil {
			b.Fatal(err)
		}
		before := cpuTime(b)
		time.Sleep(time.Second)
		idle += cpuTime(b) - before
	}
	b.ReportMetric(float64(idle.Microseconds())/1e3/float64(b.N), "idle-cpu-ms")
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
