package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// Runtime metrics read around each timed section.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mLive     = "/gc/heap/live:bytes"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mGCCycles = "/gc/cycles/total:gc-cycles"
)

// runtimeSnapshot is the cumulative runtime counters at one instant.
type runtimeSnapshot struct {
	allocBytes uint64
	gcCPU      float64 // seconds, runtime estimate
	totalCPU   float64 // seconds, runtime estimate
	gcCycles   uint64
	cpu        time.Duration // process user+sys (getrusage)
	at         time.Time
}

func snapshot() runtimeSnapshot {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mGCCycles}}
	metrics.Read(s)
	return runtimeSnapshot{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		gcCycles:   s[3].Value.Uint64(),
		cpu:        processCPU(),
		at:         time.Now(),
	}
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail; a zero reading would
	// show as a zero CPU metric.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// repCost is the host cost of one timed section.
type repCost struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	peakLive   uint64 // peak live heap (bytes marked by a GC cycle)
	gcCPU      float64
	totalCPU   float64
	gcCycles   uint64
}

// timeSection runs fn as one timed section: it collects garbage first so
// every section starts from the same heap, then measures wall time,
// process CPU, allocation, GC work and the peak live heap.
func timeSection(fn func() error) (repCost, error) {
	runtime.GC()
	stop := samplePeakLive()
	a := snapshot()
	err := fn()
	b := snapshot()
	peak := stop()
	return repCost{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		peakLive:   peak,
		gcCPU:      b.gcCPU - a.gcCPU,
		totalCPU:   b.totalCPU - a.totalCPU,
		gcCycles:   b.gcCycles - a.gcCycles,
	}, err
}

// samplePeakLive polls the live heap — the bytes the last GC cycle
// marked — until the returned stop function is called; stop waits for
// the poller to exit and returns the peak it saw.
func samplePeakLive() (stop func() uint64) {
	done := make(chan struct{})
	peakCh := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: mLive}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-done:
				read()
				peakCh <- peak
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peakCh
	}
}
