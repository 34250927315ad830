package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime metric keys the benchmark reads (runtime/metrics, no
// stop-the-world).
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rmIdleCPU    = "/cpu/classes/idle:cpu-seconds"
)

// readRuntime reads the named runtime metrics as float64s.
func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// watchTick is how often the watcher samples the heap in use.
const watchTick = 2 * time.Millisecond

// watcher measures one stretch of measured work from the side: the bytes
// it allocates and the peak heap in use.
type watcher struct {
	alloc0 float64
	stopc  chan struct{}
	wg     sync.WaitGroup
	peak   float64
}

func startWatch() *watcher {
	m := &watcher{alloc0: readRuntime(rmAllocBytes)[0], stopc: make(chan struct{})}
	m.peak = readRuntime(rmHeapBytes)[0]
	m.wg.Add(1)
	//sccvet:allow bare-goroutine the benchmark's own side sampler, joined by stop
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(watchTick)
		defer t.Stop()
		for {
			select {
			case <-m.stopc:
				return
			case <-t.C:
				if h := readRuntime(rmHeapBytes)[0]; h > m.peak {
					m.peak = h
				}
			}
		}
	}()
	return m
}

// stop ends the watch and returns the bytes allocated since the start and
// the peak heap in use.
func (m *watcher) stop() (allocB, peakB uint64) {
	close(m.stopc)
	m.wg.Wait()
	v := readRuntime(rmAllocBytes, rmHeapBytes)
	if v[1] > m.peak {
		m.peak = v[1]
	}
	return uint64(v[0] - m.alloc0), uint64(m.peak)
}
