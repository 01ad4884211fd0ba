package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// percentile returns the q-quantile of xs by the nearest-rank rule
// (0 for no samples). xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memCounters are the runtime's cumulative allocation and GC counters.
type memCounters struct {
	allocBytes, gcCycles, gcPauseNs uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{allocBytes: ms.TotalAlloc, gcCycles: uint64(ms.NumGC), gcPauseNs: ms.PauseTotalNs}
}

func (a memCounters) sub(b memCounters) memCounters {
	return memCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcPauseNs - b.gcPauseNs}
}

// sampler polls the heap in use (the runtime's HeapInuse, read through
// runtime/metrics, which does not stop the world) and an optional extra
// gauge every interval until stopped, keeping the heap peak and every
// extra sample.
type sampler struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	heapPeak uint64
	extra    []float64
}

var heapInuseMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

// heapInuse reads the heap in use now.
func heapInuse() uint64 { return readHeapInuse(heapInuseSamples()) }

func heapInuseSamples() []metrics.Sample {
	buf := make([]metrics.Sample, len(heapInuseMetrics))
	for i, name := range heapInuseMetrics {
		buf[i].Name = name
	}
	return buf
}

func readHeapInuse(buf []metrics.Sample) uint64 {
	metrics.Read(buf)
	var total uint64
	for _, s := range buf {
		if s.Value.Kind() == metrics.KindUint64 {
			total += s.Value.Uint64()
		}
	}
	return total
}

func startSampler(interval time.Duration, extra func() float64) *sampler {
	s := &sampler{stop: make(chan struct{})}
	buf := heapInuseSamples()
	take := func() {
		s.heapPeak = max(s.heapPeak, readHeapInuse(buf))
		if extra != nil {
			s.extra = append(s.extra, extra())
		}
	}
	take()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				take()
				return
			case <-tick.C:
				take()
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for its goroutine; its fields are
// final afterwards.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}
