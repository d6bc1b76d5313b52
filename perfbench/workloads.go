package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/rdf"
	"repro/internal/workload"
)

// setupRepeats is how many times a serving workload is set up per run;
// setup_s is the median. The 1M-triple graphs take several seconds to
// build, so the single-graph workloads set up once and the median is
// taken across runs.
var setupRepeats = map[string]int{"point": 1, "analytic": 1, "sharded": 2}

func runServing(rep *report, name string, spec servingSpec, seed int64, window time.Duration, traced bool) error {
	var env *servingEnv
	var setups, gens, graphs, shards []float64
	for i := 0; i < setupRepeats[name]; i++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		e, err := setupServing(name, spec, seed)
		if err != nil {
			return err
		}
		env = e
		setups = append(setups, e.setupS())
		gens = append(gens, e.genS)
		graphs = append(graphs, e.graphS)
		shards = append(shards, e.shardS)
	}
	defer env.close()
	heap := liveHeapMB()

	rep.Env["triples"] = env.triples
	rep.Env["universities"] = spec.Universities
	rep.Env["rate_lo_per_s"] = spec.Lo
	rep.Env["rate_hi_per_s"] = spec.Hi
	rep.Env["search_from_per_s"] = spec.SearchFrom
	rep.Env["latency_limit_ms"] = spec.LimitMs
	rep.Env["server_config"] = "server.Config{} (defaults: no trace sampling, no slow log, no hedging, no fault plan)"
	rep.Env["setup_repeats"] = len(setups)
	if spec.Sharded {
		rep.Env["sharding"] = fmt.Sprintf("%s, %d shards x %d replicas", shardStrategy, shardCount, shardReplicas)
	}

	tWindow := time.Now()
	cpu0 := readCPUStat()
	run, err := env.timed(window)
	if err != nil {
		return err
	}
	rep.Env["wall_s.timed"] = time.Since(tWindow).Seconds()
	rep.Env["cpu_steal_pct.timed"] = stealPct(cpu0, readCPUStat())
	tVerify := time.Now()
	rep.Env["connections"] = run.conns

	// The reference graph: the serving graph itself, or for the sharded
	// workload an unsharded graph of the same triples, built after the
	// timed window so it weighs on neither setup_s nor heap_mb.
	ref := env.graph
	refBuildS := 0.0
	if ref == nil {
		t := time.Now()
		ref = rdf.NewGraph(workload.GenerateUniversity(universityConfig(spec.Universities, seed)))
		ref.Encoded()
		ref.Stats()
		refBuildS = time.Since(t).Seconds()
	}
	v, err := env.verifyReplies(run.all, run.bodies, ref)
	if err != nil {
		return err
	}
	rep.Env["wall_s.verify"] = time.Since(tVerify).Seconds()

	// Timed phases: lo and hi.
	lo, hi := run.lo.res, run.hi.res
	wrongTimed := 0
	for _, p := range []*phase{run.lo, run.hi} {
		wrongTimed += wrongIn(p, v)
	}
	attempted := lo.Attempted + hi.Attempted
	failed := lo.Failed + hi.Failed + wrongTimed
	rep.Attempt, rep.Failed = attempted, failed
	// A healthy serving run answers every request of the fixed-rate
	// phases with 200 and every answer in the run right; a refusal, a
	// transport error or an abandoned arrival there makes it incorrect.
	rep.Correct = v.wrong == 0 && lo.Failed+hi.Failed == 0
	rep.set("setup_s", median(setups), "s")
	rep.set("heap_mb", heap, "MB")
	rep.set("ok_ratio", 1-ratio(float64(failed), float64(attempted)), "ratio")
	rep.set("error_ratio", ratio(float64(failed), float64(attempted)), "ratio")
	rep.setN("lo.lat_p50_ms", median(lo.Latency), "ms", len(lo.Latency))
	rep.setTail("lo.lat_p99_ms", lo.Latency, 0.99)
	rep.setN("hi.lat_p50_ms", median(hi.Latency), "ms", len(hi.Latency))
	rep.setTail("hi.lat_p99_ms", hi.Latency, 0.99)
	rep.Env["lo.lat_ms_deciles"] = deciles(lo.Latency)
	rep.set("max_qps", run.maxQPS, "1/s")
	if !run.maxResolved {
		rep.Remarks["max_qps"] = fmt.Sprintf("search ended after %d steps without a pass/fail bracket", len(run.steps))
	}
	// Per phase: samples, generator lag and pacing error (p99 where a
	// phase has 1,000 samples, else p95 where it has 200), and for the
	// search steps the figures their verdict rested on.
	samples := 0
	for _, p := range run.all {
		samples += len(p.res.Latency)
		rep.Env["samples."+p.name] = len(p.res.Latency)
		rep.Env["lag_ms."+p.name] = tailString(p.res.Lag)
		rep.Env["pacing_ms."+p.name] = tailString(p.res.Pacing)
		if p != run.lo && p != run.hi && p != run.all[0] {
			q := verdictQuantile(len(p.res.Latency))
			rep.Env["step."+p.name] = fmt.Sprintf("offered %.1f/s, completed in window %.1f/s, p%.4g %.3f ms (n=%d), queued at end %d, failed %d, pass %v",
				p.offered, p.res.throughput(), 100*q, percentile(p.res.Latency, q), len(p.res.Latency), p.res.Queued, p.res.Failed, p.passes(spec.LimitMs))
		}
	}
	// Generator lag of the lo phase, whose median is gated: the search
	// steps overload the server on purpose, so their lag says nothing
	// about whether lo measured the program.
	// The p90 is in the contract: it needs 100 samples, which every
	// workload's lo phase has.
	rep.setTail("lo.lag_p90_ms", lo.Lag, 0.90)
	rep.setTail("lo.lag_p95_ms", lo.Lag, 0.95)
	rep.setTail("lo.lag_p99_ms", lo.Lag, 0.99)
	rep.setTail("lo.pacing_p90_ms", lo.Pacing, 0.90)
	rep.set("loadgen.samples", float64(samples), "count")
	rep.set("server.plan_cache_hit_ratio", run.hitRatio, "ratio")
	rep.set("server.shed_ratio", run.shedRatio, "ratio")
	n := float64(lo.Completed + hi.Completed)
	rep.set("go.alloc_kb_per_req", ratio(float64(run.goRT.AllocBytes)/1024, n), "KiB")
	rep.set("go.allocs_per_req", ratio(float64(run.goRT.AllocObjects), n), "count")
	rep.set("go.gc_pause_p99_ms", run.goRT.GCPauseP99Ms, "ms")
	rep.set("go.sched_latency_p99_ms", run.goRT.SchedLatP99Ms, "ms")
	rep.set("workload.gen_s", median(gens), "s")
	if spec.Sharded {
		rep.set("shard.build_s", median(shards), "s")
		rep.set("rdf.build_s", refBuildS, "s")
		rep.Remarks["rdf.build_s"] = "unsharded reference graph, built after the timed window"
	} else {
		rep.set("rdf.build_s", median(graphs), "s")
	}
	rep.Env["verified_texts"] = v.texts
	rep.Env["verified_answers"] = v.checked
	if v.wrong > 0 {
		rep.note("wrong answers: %d of %d, by template %v", v.wrong, v.checked, v.wrongIn)
	}
	if lo.Failed+hi.Failed > 0 {
		rep.note("lo/hi phases: %d of %d requests failed, were refused or were abandoned", lo.Failed+hi.Failed, attempted)
	}
	if lag, ok := tail(lo.Lag, 0.90); ok && lag > 0.1*median(lo.Latency) {
		rep.note("lo phase: generator lag p90 %.3f ms is not well below lo p50 %.3f ms", lag, median(lo.Latency))
	}

	if traced {
		return traceReplay(rep, env, ref, median(lo.Latency))
	}
	return nil
}

// wrongIn counts the 200 answers of p whose body differs from the
// verified reference body of their text.
func wrongIn(p *phase, v verification) int {
	if v.wrong == 0 {
		return 0
	}
	n := 0
	for k, r := range p.reqs {
		if p.got[k].status == 200 && p.got[k].hash != v.good[r.Text] {
			n++
		}
	}
	return n
}

// tailString renders the p99 of xs when it has 1,000 samples, else the
// p95 when it has 200, with the sample count.
func tailString(xs []float64) string {
	if v, ok := tail(xs, 0.99); ok {
		return fmt.Sprintf("p99 %.3f (n=%d)", v, len(xs))
	}
	if v, ok := tail(xs, 0.95); ok {
		return fmt.Sprintf("p95 %.3f (n=%d, too few for p99)", v, len(xs))
	}
	return fmt.Sprintf("missing (n=%d)", len(xs))
}

// deciles renders the 10th to 90th percentiles of xs.
func deciles(xs []float64) string {
	var b strings.Builder
	for q := 1; q <= 9; q++ {
		fmt.Fprintf(&b, "%.3g ", percentile(xs, float64(q)/10))
	}
	return strings.TrimSpace(b.String())
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
