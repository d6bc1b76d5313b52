package main

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// Go runtime samples read through runtime/metrics. A snapshot is taken
// at the start and end of a timed phase; the difference is what the
// phase cost the runtime.
var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

type goSnapshot struct {
	allocBytes, allocObjects uint64
	gcPauses, schedLat       *metrics.Float64Histogram
}

func readGo() goSnapshot {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goSnapshot{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcPauses:     s[2].Value.Float64Histogram(),
		schedLat:     s[3].Value.Float64Histogram(),
	}
}

// goDelta is the runtime activity between two snapshots.
type goDelta struct {
	AllocBytes, AllocObjects uint64
	GCPauseP99Ms             float64 // nearest-rank p99 of GC stop-the-world pauses
	SchedLatP99Ms            float64 // p99 of the time goroutines waited to run
}

func diffGo(a, b goSnapshot) goDelta {
	return goDelta{
		AllocBytes:    b.allocBytes - a.allocBytes,
		AllocObjects:  b.allocObjects - a.allocObjects,
		GCPauseP99Ms:  histP99(a.gcPauses, b.gcPauses) * 1e3,
		SchedLatP99Ms: histP99(a.schedLat, b.schedLat) * 1e3,
	}
}

// histP99 returns the upper bound of the bucket holding the p99 of the
// samples added between two snapshots of one runtime histogram (0 when
// none were added). An unbounded top bucket reports its lower bound.
func histP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
