package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/sparql"
)

// traceRequests is the length of the request-stream prefix the traced
// replay sends.
const traceRequests = 400

// traceTolerance is how far, as a share of the median roundtrip, the
// directly timed stages may overrun the roundtrip they split. Per
// request, roundtrip − (parse + prepare + plan + exec) and roundtrip −
// handler are taken; the median of each may not fall below
// −traceTolerance × the median roundtrip. Either would mean a stage was
// timed with work the served request does not do, and the split would
// not describe the request. The check pairs each stage with its own
// request's roundtrip: sharded executions vary by more than the loopback
// costs, so comparing the median handler with the median roundtrip
// would fail at random.
const traceTolerance = 0.05

// span is one timed call the replay made, recorded from the
// benchmark's side of the call. Spans of one request share Req; the
// request's root span has Parent -1 and the calls it made point at it.
type span struct {
	Req     int     `json:"req"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	Tmpl    string  `json:"template,omitempty"`
	Miss    bool    `json:"plan_cache_miss,omitempty"`
}

// spanRecorder keeps spans in memory until the run writes them out.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

// time runs f and records it as a span of request req under parent.
func (s *spanRecorder) time(req, parent int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	s.spans = append(s.spans, span{Req: req, ID: len(s.spans), Parent: parent, Name: name, StartUs: us(start.Sub(s.t0)), DurUs: us(d)})
	return d
}

// traceReplay replays, one request at a time, the first traceRequests
// requests of the workload's seeded stream against fresh servers with
// the same configuration, and splits each request into the layers it
// crosses:
//
//	roundtrip  GET over the loopback listener, to the last body byte
//	handler    Handler().ServeHTTP into a recorder, on a twin server
//	           whose plan cache sees the same sequence
//	parse      sparql.Parse            } counted on plan-cache misses,
//	prepare    sparql.PrepareQuery     } taken from the exact /stats
//	           (sharded: ShardedGraph.PrepareQuery)
//	plan       first run − repeat run  } counter diff around the request
//	exec       repeat RunSolutions (sharded: shard.Prepared.RunSolutions)
//
// server.overhead = handler − (parse + prepare + plan) − exec,
// net.unattributed = roundtrip − handler and trace.unattributed =
// roundtrip − (parse + prepare + plan) − exec. The stages plus the
// unattributed terms are therefore the roundtrip by construction; what
// can fail is that the stages fit inside it (see traceTolerance), and
// the replay checks that at the median.
func traceReplay(rep *report, env *servingEnv, ref *rdf.Graph, loP50 float64) error {
	wire, err := env.fresh()
	if err != nil {
		return err
	}
	defer wire.close()
	twin, err := env.fresh()
	if err != nil {
		return err
	}
	defer twin.close()
	client := newClients(1)[0]
	defer client.CloseIdleConnections()

	reqs := newStream(env.name, universityConfig(env.spec.Universities, env.seed), env.seed).take(traceRequests)
	tmpls := workloadTemplates(env.name)
	par := runtime.GOMAXPROCS(0)
	ctx := context.Background()
	rec := &spanRecorder{t0: time.Now()}
	var buf bytes.Buffer

	var rt, handler, overhead, net, unattr, size []float64
	var parse, prepare, plan, exec, shardExec, tax []float64
	byTmpl := map[string][]float64{}
	var morsels, parOps, rows, touched, pruned, scatter, attempts float64
	var pushdown int
	var retries, failovers, hedges int64
	for i, r := range reqs {
		root := len(rec.spans)
		rec.spans = append(rec.spans, span{Req: i, ID: root, Parent: -1, Name: "request", StartUs: us(time.Since(rec.t0)), Tmpl: tmpls[r.Tmpl].Name})
		before, err := getStats(client, wire.base)
		if err != nil {
			return err
		}
		u := queryURL(wire.base, r.Text)
		var got reply
		dRT := rec.time(i, root, "roundtrip", func() { got = fetch(client, &buf, u) })
		after, err := getStats(client, wire.base)
		if err != nil {
			return err
		}
		if got.status != http.StatusOK {
			return fmt.Errorf("traced request %d (%s) answered %d", i, tmpls[r.Tmpl].Name, got.status)
		}
		miss := after.PlanCache.Misses-before.PlanCache.Misses == 1
		rec.spans[root].Miss = miss

		var hrec *httptest.ResponseRecorder
		dH := rec.time(i, root, "handler", func() {
			hrec = httptest.NewRecorder()
			twin.srv.Handler().ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, queryURL("", r.Text), nil))
		})
		if hrec.Code != http.StatusOK {
			return fmt.Errorf("traced request %d answered %d through the handler", i, hrec.Code)
		}

		var q *sparql.Query
		var perr error
		dParse := rec.time(i, root, "parse", func() { q, perr = sparql.Parse(r.Text) })
		if perr != nil {
			return fmt.Errorf("parse traced request %d: %w", i, perr)
		}
		var prep *sparql.Prepared
		var sp *shard.Prepared
		dPrep := rec.time(i, root, "prepare", func() {
			if env.sg != nil {
				sp = env.sg.PrepareQuery(q)
			} else {
				prep = sparql.PrepareQuery(q)
			}
		})

		var rs sparql.RunStats
		var st sparql.ShardStats
		var fs sparql.FaultStats
		var sol *sparql.Solutions
		var rerr error
		var dFirst, dExec time.Duration
		if env.sg != nil {
			opts := []sparql.RunOption{sparql.WithParallelism(par), sparql.WithRunStats(&rs), sparql.WithShardStats(&st), sparql.WithFaultStats(&fs)}
			dFirst = rec.time(i, root, "shard.run_first", func() { _, rerr = sp.RunSolutions(ctx, opts...) })
			if rerr == nil {
				dExec = rec.time(i, root, "shard.run_repeat", func() { sol, rerr = sp.RunSolutions(ctx, opts...) })
			}
			if rerr == nil {
				// The same request on an unsharded graph of the same
				// triples: the distribution tax.
				single := sparql.PrepareQuery(q)
				if _, rerr = single.RunSolutions(ctx, ref, sparql.WithParallelism(par)); rerr == nil {
					dSingle := rec.time(i, root, "sparql.run_repeat_unsharded", func() { _, rerr = single.RunSolutions(ctx, ref, sparql.WithParallelism(par)) })
					tax = append(tax, ratio(float64(dExec), float64(dSingle)))
				}
			}
			shardExec = append(shardExec, us(dExec))
			byTmpl["shard.exec_us."+tmpls[r.Tmpl].Name] = append(byTmpl["shard.exec_us."+tmpls[r.Tmpl].Name], us(dExec))
			if st.Route == sparql.RoutePushdown {
				pushdown++
			}
			touched += float64(st.ShardsTouched)
			pruned += float64(st.ShardsPruned)
			scatter += float64(st.ScatterPatterns)
			attempts += float64(fs.Attempts)
			retries += fs.Retries
			failovers += fs.Failovers
			hedges += fs.Hedges
		} else {
			opts := []sparql.RunOption{sparql.WithParallelism(par), sparql.WithRunStats(&rs)}
			dFirst = rec.time(i, root, "sparql.run_first", func() { _, rerr = prep.RunSolutions(ctx, env.graph, opts...) })
			if rerr == nil {
				dExec = rec.time(i, root, "sparql.run_repeat", func() { sol, rerr = prep.RunSolutions(ctx, env.graph, opts...) })
			}
			exec = append(exec, us(dExec))
			byTmpl["sparql.exec_us."+tmpls[r.Tmpl].Name] = append(byTmpl["sparql.exec_us."+tmpls[r.Tmpl].Name], us(dExec))
		}
		if rerr != nil {
			return fmt.Errorf("run traced request %d: %w", i, rerr)
		}
		morsels += float64(rs.Morsels)
		parOps += float64(rs.ParallelOps)
		rows += float64(sol.Len())

		dPlan := dFirst - dExec
		compile := time.Duration(0)
		if miss {
			parse = append(parse, us(dParse))
			prepare = append(prepare, us(dPrep))
			plan = append(plan, us(dPlan))
			compile = dParse + dPrep + dPlan
		}
		rec.spans[root].DurUs = us(dRT)
		rt = append(rt, us(dRT))
		handler = append(handler, us(dH))
		size = append(size, float64(got.size)/1024)
		overhead = append(overhead, us(dH-compile-dExec))
		net = append(net, us(dRT-dH))
		unattr = append(unattr, us(dRT-compile-dExec))
	}

	n := float64(len(reqs))
	rep.Spans = rec.spans
	rep.setN("server.handler_us", median(handler), "us", len(handler))
	rep.setN("server.overhead_us", median(overhead), "us", len(overhead))
	rep.setN("server.response_kb", median(size), "KiB", len(size))
	rep.setN("net.unattributed_us", median(net), "us", len(net))
	rep.setN("trace.roundtrip_us", median(rt), "us", len(rt))
	rep.setN("trace.unattributed_us", median(unattr), "us", len(unattr))
	rep.set("trace.overhead_ms", median(rt)/1e3-loP50, "ms")
	rep.setN("sparql.parse_us", median(parse), "us", len(parse))
	rep.setN("sparql.prepare_us", median(prepare), "us", len(prepare))
	rep.setN("sparql.plan_us", median(plan), "us", len(plan))
	rep.set("sparql.morsels_per_query", morsels/n, "count")
	rep.set("sparql.parallel_ops_per_query", parOps/n, "count")
	rep.set("sparql.rows_out_per_query", rows/n, "count")
	if env.sg != nil {
		rep.setN("shard.exec_us", median(shardExec), "us", len(shardExec))
		rep.setN("shard.tax_ratio", median(tax), "ratio", len(tax))
		rep.set("shard.pushdown_ratio", float64(pushdown)/n, "ratio")
		rep.set("shard.touched_per_query", touched/n, "count")
		rep.set("shard.pruned_per_query", pruned/n, "count")
		rep.set("shard.scatter_patterns_per_query", scatter/n, "count")
		rep.set("shard.attempts_per_query", attempts/n, "count")
		rep.set("shard.retries", float64(retries), "count")
		rep.set("shard.failovers", float64(failovers), "count")
		rep.set("shard.hedges", float64(hedges), "count")
	} else {
		rep.setN("sparql.exec_us", median(exec), "us", len(exec))
	}
	for _, k := range sortedKeys(byTmpl) {
		rep.setN(k, median(byTmpl[k]), "us", len(byTmpl[k]))
	}

	// Stage check: per request, the directly timed stages and the
	// handler must fit inside the roundtrip, at the median.
	medRT := median(rt)
	rep.Env["trace.requests"] = len(reqs)
	rep.Env["trace.plan_cache_misses"] = len(parse)
	rep.Env["trace.tolerance"] = traceTolerance
	rep.Env["trace.stages_median_us"] = map[string]float64{
		"roundtrip":          medRT,
		"handler":            median(handler),
		"exec":               median(append(append([]float64{}, exec...), shardExec...)),
		"server.overhead":    median(overhead),
		"net.unattributed":   median(net),
		"trace.unattributed": median(unattr),
	}
	if m := median(unattr); m < -traceTolerance*medRT {
		rep.Correct = false
		rep.note("traced stages overrun the roundtrip: median unattributed %.1f us against roundtrip %.1f us (tolerance %.0f%%)", m, medRT, 100*traceTolerance)
	}
	if m := median(net); m < -traceTolerance*medRT {
		rep.Correct = false
		rep.note("traced handler time overruns the roundtrip: median roundtrip − handler %.1f us against roundtrip %.1f us (tolerance %.0f%%)", m, medRT, 100*traceTolerance)
	}
	return nil
}
