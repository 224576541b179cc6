package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest value with at least q·len(xs) values at or below it, so exactly
// len(xs) − ⌈q·len(xs)⌉ samples lie beyond it. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median is the midpoint median (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnapshot reads the allocation counters; cheap enough outside timing.
func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeap forces a full collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	return memSnapshot().HeapAlloc
}

// heapSince is how much the live heap grew since a liveHeap reading.
func heapSince(before uint64) uint64 {
	if now := liveHeap(); now > before {
		return now - before
	}
	return 0
}

// heapLiveMB is the end-of-run live heap minus what the generated inputs
// occupy, in MiB. It still counts the runtime's own heap and the answers
// the benchmark keeps for its checks; both are the same for every seed.
func heapLiveMB(end, inputs uint64) float64 {
	if end < inputs {
		return 0
	}
	return float64(end-inputs) / (1 << 20)
}

// allocDelta is the allocation activity between two snapshots.
type allocDelta struct {
	bytes, mallocs uint64
}

func allocsBetween(before, after runtime.MemStats) allocDelta {
	return allocDelta{bytes: after.TotalAlloc - before.TotalAlloc, mallocs: after.Mallocs - before.Mallocs}
}
