package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// ten samples above it, that percentile, and the sample count. With
// fewer than eleven samples it falls back to the maximum (percentile
// 100), which has none above it.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11
	if k < 0 {
		k = n - 1
	}
	return s[k], 100 * float64(k+1) / float64(n), n
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMB forces a collection and returns the bytes in reachable
// heap objects, in MiB. The workloads call it where they hold the most
// (a wolfd epoch's end, with every job still in the server; a program's
// report; a wolfsync round's trace and verdict), so work a change moves
// into a cache or a retained buffer shows as memory. Sampling HeapInuse
// instead read as much about when the collector last ran as about the
// program: on the small wolfsync heap its peak moved by a fifth from
// run to run of the same code.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
