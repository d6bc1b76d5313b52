package shard

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// BenchmarkShardedStar measures what placement-aware routing buys: the
// same subject-star query over the same 4-shard subject-hash placement,
// once on the pushdown route (shard-local stars, no cross-shard join)
// and once forced onto scatter-gather (per-pattern gathers + global
// hash joins). Pushdown must win.
func BenchmarkShardedStar(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	sg, err := BuildByName(triples, "hash-subject", 4)
	if err != nil {
		b.Fatal(err)
	}
	text := fmt.Sprintf(`SELECT ?s ?d ?e WHERE { ?s <%sworksFor> ?d . ?s <%semailAddress> ?e . ?s <%sname> ?n }`,
		workload.UnivNS, workload.UnivNS, workload.UnivNS)
	sp, err := sg.Prepare(text)
	if err != nil {
		b.Fatal(err)
	}
	if route := sp.ExplainShards().Route; route != sparql.RoutePushdown {
		b.Fatalf("star query routed %s, want pushdown", route)
	}
	ctx := context.Background()
	b.Run("pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sp.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scatter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sp.Run(ctx, sparql.WithScatterOnly()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedLinear tracks the scatter-gather route on a linear
// (cross-shard join) query against the single-graph evaluator — the
// price of distribution when placement cannot make the query local.
func BenchmarkShardedLinear(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	text := fmt.Sprintf(`SELECT ?st ?prof ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS)
	ctx := context.Background()

	sg, err := BuildByName(triples, "hash-subject", 4)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := sg.Prepare(text)
	if err != nil {
		b.Fatal(err)
	}
	if route := sp.ExplainShards().Route; route != sparql.RouteScatter {
		b.Fatalf("linear query routed %s, want scatter-gather", route)
	}
	b.Run("scatter-4shards", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sp.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	g := rdf.NewGraph(triples)
	g.Encoded()
	g.Stats()
	prep, err := sparql.Prepare(text)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("single-graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Run(ctx, g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedTailLatency measures what hedged shard operations
// buy under a straggler: the same scatter query over 4 shards × 2
// replicas, with the slow replica index alternating per iteration (a
// 2ms stall, so health steering keeps getting surprised), once without
// hedging and once hedged after 200µs. The p50-ms/p99-ms metrics are
// the point: hedging must pull the tail in.
func BenchmarkShardedTailLatency(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	text := fmt.Sprintf(`SELECT ?st ?prof ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS)
	const nShards, reps = 4, 2
	plans := make([]*fault.Plan, reps)
	for r := range plans {
		plans[r] = fault.NewPlan(int64(r + 1))
		for s := 0; s < nShards; s++ {
			plans[r].SlowReplica(s, r, 2*time.Millisecond)
		}
	}
	run := func(b *testing.B, opts ...sparql.RunOption) {
		// A fresh set per sub-benchmark: replica health must not carry
		// what it learned about the stragglers across variants.
		sg, err := BuildReplicatedByName(triples, "hash-subject", nShards, reps)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := sg.Prepare(text)
		if err != nil {
			b.Fatal(err)
		}
		durs := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := fault.With(context.Background(), plans[i%reps])
			start := time.Now()
			if _, err := sp.Run(ctx, opts...); err != nil {
				b.Fatal(err)
			}
			durs = append(durs, time.Since(start))
		}
		b.StopTimer()
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		pct := func(p int) float64 {
			idx := (p*len(durs) + 99) / 100
			if idx < 1 {
				idx = 1
			}
			return float64(durs[idx-1].Microseconds()) / 1000
		}
		b.ReportMetric(pct(50), "p50-ms")
		b.ReportMetric(pct(99), "p99-ms")
	}
	b.Run("unhedged", func(b *testing.B) { run(b) })
	b.Run("hedged", func(b *testing.B) {
		run(b, sparql.WithHedge(sparql.HedgePolicy{Delay: 200 * time.Microsecond}))
	})
}

// BenchmarkShardedScoped tracks the scatter-gather route on the
// department-scoped serving shapes — a linear path and a triangle, each
// seeded by one department constant — against the single-graph
// evaluator. The seed binds a few dozen rows, so every later pattern
// costs far less as a bind probe per shard than as a scan of its whole
// extent.
func BenchmarkShardedScoped(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	sg, err := BuildByName(triples, "hash-subject", 4)
	if err != nil {
		b.Fatal(err)
	}
	g := rdf.NewGraph(triples)
	g.Encoded()
	g.Stats()
	dept := "<" + workload.UnivNS + "univ0.dept0>"
	u := func(local string) string { return "<" + workload.UnivNS + local + ">" }
	queries := []struct{ name, text string }{
		{"dept-linear", `SELECT ?s ?p ?pn WHERE { ?s ` + u("memberOf") + ` ` + dept + ` . ?s ` + u("advisor") + ` ?p . ?p ` + u("name") + ` ?pn }`},
		{"dept-triangle", `SELECT ?s ?p ?c WHERE { ?s ` + u("memberOf") + ` ` + dept + ` . ?s ` + u("advisor") + ` ?p . ?p ` + u("teacherOf") + ` ?c . ?s ` + u("takesCourse") + ` ?c }`},
	}
	ctx := context.Background()
	for _, q := range queries {
		sp, err := sg.Prepare(q.text)
		if err != nil {
			b.Fatal(err)
		}
		if route := sp.ExplainShards().Route; route != sparql.RouteScatter {
			b.Fatalf("%s routed %s, want scatter-gather", q.name, route)
		}
		prep, err := sparql.Prepare(q.text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name+"/scatter-4shards", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sp.Run(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/single-graph", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prep.Run(ctx, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
