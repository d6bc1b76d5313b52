package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the intended send offsets of a Poisson
// arrival process at rate requests per second over d, conditioned on its
// count: exactly round(rate·d) arrivals, placed as sorted uniform draws
// over d — the arrival times of a Poisson process given how many
// arrived. Users are independent, and a phase offers exactly its rate,
// with none of the ±1/√n count noise of an unconditioned draw. The
// draws come from a generator seeded with seed, so the same seed always
// yields the same schedule.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, int(math.Round(rate*d.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	Window    time.Duration // length of the phase: arrivals fall in [0, Window)
	Latency   []float64     // ms, intended send time → last body byte, requests that got an answer
	Lag       []float64     // ms, how late each request was sent: send time − intended time
	Pacing    []float64     // ms, the pacer's own lateness: send time − max(intended time, worker free)
	Attempted int           // arrivals in the schedule
	Failed    int           // non-200 answers, transport errors, and arrivals never sent
	Completed int           // requests that got a 200
	InWindow  int           // requests that got a 200 before the window closed
	Queued    int           // arrivals still waiting to be sent when the window closed: the backlog
}

// throughput is the rate of answers completed inside the phase window.
func (p phaseResult) throughput() float64 {
	if p.Window <= 0 {
		return 0
	}
	return float64(p.InWindow) / p.Window.Seconds()
}

// runOpenLoop drives one open-loop phase: arrival k is due at
// start+sched[k] whether or not earlier requests have finished. conns
// workers, one keep-alive connection each, take arrivals in order; a
// worker that is free sleeps until the next arrival is due, a busy one
// takes it late. Latency runs from the intended send time, so a stall
// is charged to every request queued behind it (no coordinated
// omission). Lag is how late each request went out; a stall shows in it
// as a backlog. Pacing is the part of the lag that is the pacer's own
// error: how long after max(intended time, the moment a worker was
// free) the request went out. Queued counts the arrivals not yet sent
// when the window closed. Arrivals not sent within drain after the
// window are abandoned and counted as failed.
//
// do sends arrival k on connection conn and reports whether it was
// answered with 200.
func runOpenLoop(sched []time.Duration, window time.Duration, conns int, drain time.Duration, do func(conn, k int) bool) phaseResult {
	res := phaseResult{Attempted: len(sched), Window: window}
	if len(sched) == 0 {
		return res
	}
	lat := make([]float64, len(sched))
	sent := make([]time.Duration, len(sched)) // from start
	done := make([]time.Duration, len(sched)) // completion, from start
	lag := make([]float64, len(sched))
	pacing := make([]float64, len(sched))
	ok := make([]int8, len(sched)) // 1 answered 200, -1 failed, -2 abandoned
	var next atomic.Int64
	start := time.Now()
	cutoff := start.Add(window + drain)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			clock, err := newPacer()
			if err != nil {
				clock = nil
			}
			defer clock.close()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				free := time.Now()
				intended := start.Add(sched[k])
				if free.After(cutoff) {
					ok[k] = -2
					continue
				}
				if err := clock.waitUntil(intended); err != nil {
					ok[k] = -2
					continue
				}
				now := time.Now()
				sent[k] = now.Sub(start)
				from := intended
				if free.After(from) {
					from = free
				}
				lag[k] = ms(now.Sub(intended))
				pacing[k] = ms(now.Sub(from))
				good := do(conn, k)
				end := time.Now()
				lat[k] = ms(end.Sub(intended))
				done[k] = end.Sub(start)
				if good {
					ok[k] = 1
				} else {
					ok[k] = -1
				}
			}
		}(c)
	}
	wg.Wait()
	for k := range sched {
		if ok[k] == -2 || sent[k] > window {
			res.Queued++
		}
		switch ok[k] {
		case 1:
			res.Completed++
			if done[k] <= window {
				res.InWindow++
			}
			res.Latency = append(res.Latency, lat[k])
			res.Lag = append(res.Lag, lag[k])
			res.Pacing = append(res.Pacing, pacing[k])
		case -1:
			res.Failed++
			res.Lag = append(res.Lag, lag[k])
			res.Pacing = append(res.Pacing, pacing[k])
		default:
			res.Failed++
		}
	}
	return res
}
