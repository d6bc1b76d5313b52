package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// probeQuery is one query of the probe suite. empties marks a BGP that
// runs out of rows before its last pattern, so a run may touch fewer
// shards than explain predicts. scans marks a BGP whose later pattern
// shares no variable with the rows before it, so it is scanned and
// joined instead of probed.
type probeQuery struct {
	name    string
	text    string
	empties bool
	scans   bool
}

// probeDataset is the small university plus a handful of "knows" edges,
// some of them self-loops, so repeated-variable patterns have matches.
func probeDataset() []rdf.Triple {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	knows := rdf.NewIRI(workload.UnivNS + "knows")
	for i := 0; i < 20; i += 3 {
		s := rdf.NewIRI(fmt.Sprintf("%suniv0.dept1.stud%d", workload.UnivNS, i))
		o := rdf.NewIRI(fmt.Sprintf("%suniv0.dept1.stud%d", workload.UnivNS, (i+5)%20))
		triples = append(triples, rdf.Triple{S: s, P: knows, O: o})
		if i%2 == 0 {
			triples = append(triples, rdf.Triple{S: s, P: knows, O: s})
		}
	}
	return triples
}

// probeQueries are the serving shapes whose later patterns run as bind
// probes, plus the edge cases of the probe's (row, position) merge.
func probeQueries() []probeQuery {
	u := func(local string) string { return "<" + workload.UnivNS + local + ">" }
	dept, univ, stud := u("univ0.dept1"), u("univ0"), u("univ0.dept1.stud3")
	return []probeQuery{
		{name: "advisor-path",
			text: `SELECT ?p ?pn ?dept WHERE { ` + stud + ` ` + u("advisor") + ` ?p . ?p ` + u("name") + ` ?pn . ?p ` + u("worksFor") + ` ?dept }`},
		{name: "dept-linear",
			text: `SELECT ?s ?p ?pn WHERE { ?s ` + u("memberOf") + ` ` + dept + ` . ?s ` + u("advisor") + ` ?p . ?p ` + u("name") + ` ?pn }`},
		{name: "dept-snowflake",
			text: `SELECT ?s ?sn ?c ?cn WHERE { ?s ` + u("memberOf") + ` ` + dept + ` . ?s ` + u("name") + ` ?sn . ?s ` + u("takesCourse") + ` ?c . ?c ` + u("name") + ` ?cn }`},
		{name: "dept-triangle",
			text: `SELECT ?s ?p ?c WHERE { ?s ` + u("memberOf") + ` ` + dept + ` . ?s ` + u("advisor") + ` ?p . ?p ` + u("teacherOf") + ` ?c . ?s ` + u("takesCourse") + ` ?c }`},
		{name: "dept-topk",
			text: `SELECT ?s ?a WHERE { ?s ` + u("memberOf") + ` ` + dept + ` . ?s ` + u("age") + ` ?a . FILTER(?a > 21) } ORDER BY DESC(?a) ?s LIMIT 10`},
		{name: "dept-optional",
			text: `SELECT ?p ?n ?c WHERE { ?p ` + u("worksFor") + ` ` + dept + ` . ?p ` + u("name") + ` ?n OPTIONAL { ?p ` + u("teacherOf") + ` ?c } }`},
		{name: "univ-count",
			text: `SELECT ?d (COUNT(?s) AS ?n) WHERE { ?d ` + u("subOrganizationOf") + ` ` + univ + ` . ?s ` + u("memberOf") + ` ?d } GROUP BY ?d`},
		{name: "repeated-var-bound",
			text: `SELECT ?s WHERE { ?s ` + u("memberOf") + ` ` + dept + ` . ?s ` + u("knows") + ` ?s }`},
		{name: "repeated-var-unbound", scans: true,
			text: `SELECT ?d ?x WHERE { ?d ` + u("subOrganizationOf") + ` ` + univ + ` . ?x ` + u("knows") + ` ?x }`},
		{name: "cartesian", scans: true,
			text: `SELECT ?s ?d WHERE { ?s ` + u("knows") + ` ?t . ?d ` + u("subOrganizationOf") + ` ` + univ + ` }`},
		{name: "empties-midway", empties: true,
			text: `SELECT ?s ?p ?x ?n WHERE { ?s ` + u("memberOf") + ` ` + dept + ` . ?s ` + u("advisor") + ` ?p . ?p ` + u("memberOf") + ` ?x . ?x ` + u("name") + ` ?n }`},
		{name: "bare-limit",
			text: `SELECT ?s ?p WHERE { ?s ` + u("memberOf") + ` ` + dept + ` . ?s ` + u("advisor") + ` ?p } LIMIT 7`},
		{name: "limit-offset",
			text: `SELECT ?s ?c WHERE { ?s ` + u("memberOf") + ` ` + dept + ` . ?s ` + u("takesCourse") + ` ?c } LIMIT 5 OFFSET 4`},
		{name: "ask",
			text: `ASK { ?s ` + u("memberOf") + ` ` + dept + ` . ?s ` + u("advisor") + ` ?p }`},
	}
}

// TestShardedProbeMatchesSingleGraph pins the scatter-gather bind probe
// as semantically transparent: for every probe-suite query, under every
// strategy, at shard counts 1/3/8 and parallelism 1/4, the sharded run
// returns byte-identical rows and order to a single-graph run. Every
// query must run as a bind probe somewhere in the matrix (a subject
// star pushes down under hash-subject), so the suite cannot pass on the
// scan path alone; the scans queries must never probe and must scan
// their later pattern, which pins the scan-and-join branch.
func TestShardedProbeMatchesSingleGraph(t *testing.T) {
	ctx := context.Background()
	triples := probeDataset()
	g := rdf.NewGraph(triples)
	queries := probeQueries()
	want := make(map[string]*sparql.Results, len(queries))
	probed := make(map[string]bool, len(queries))
	for _, q := range queries {
		prep, err := sparql.Prepare(q.text)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		res, err := prep.Run(ctx, g, sparql.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		if !res.IsAsk && res.Len() == 0 && !q.empties {
			t.Fatalf("%s: single-graph answer is empty; the query tests nothing", q.name)
		}
		want[q.name] = res
	}
	for _, strat := range []string{"hash-subject", "vertical", "semantic-class"} {
		for _, nShards := range []int{1, 3, 8} {
			sg, err := BuildByName(triples, strat, nShards)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/shards=%d/par=%d", strat, nShards, par), func(t *testing.T) {
					for _, q := range queries {
						sp, err := sg.Prepare(q.text)
						if err != nil {
							t.Fatal(err)
						}
						tr := obs.New("query")
						got, err := sp.Run(ctx, sparql.WithParallelism(par), sparql.WithTrace(tr))
						tr.Finish()
						if err != nil {
							t.Fatalf("%s: %v", q.name, err)
						}
						mustEqualResults(t, want[q.name], got)
						probes := len(tr.Root().FindAll("probe"))
						if probes > 0 {
							probed[q.name] = true
						}
						if q.scans {
							if scans := len(tr.Root().FindAll("scatter")); probes > 0 || scans < 2 {
								t.Fatalf("%s: %d probes and %d scans, want 0 probes and a scan per pattern",
									q.name, probes, scans)
							}
						}
					}
				})
			}
		}
	}
	for _, q := range queries {
		if !q.scans && !probed[q.name] {
			t.Errorf("%s: no run of the matrix probed", q.name)
		}
	}
}

// TestShardedProbeBudget extends the budget-overload contract to bind
// probes at one shard, where the merge passes a single shard's output
// through without copying. Across a sweep of budgets every run of a
// plain-BGP probe query either returns the single-graph answer or fails
// with a *BudgetError, and some run goes over at the "join" stage: the
// probe output is charged like the hash join's output batch it
// replaces, not only when the merge copies it.
func TestShardedProbeBudget(t *testing.T) {
	ctx := context.Background()
	triples := probeDataset()
	g := rdf.NewGraph(triples)
	sg, err := BuildByName(triples, "hash-subject", 1)
	if err != nil {
		t.Fatal(err)
	}
	joinAborts := 0
	for _, q := range probeQueries() {
		switch q.name {
		case "dept-linear", "dept-snowflake", "dept-triangle", "advisor-path":
		default:
			continue
		}
		prep, err := sparql.Prepare(q.text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := prep.Run(ctx, g, sparql.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sg.Prepare(q.text)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			for budget := int64(64); budget <= 16<<10; budget += 64 {
				got, err := sp.Run(ctx, sparql.WithParallelism(par), sparql.WithMemoryBudget(budget))
				if err != nil {
					var be *sparql.BudgetError
					if !errors.As(err, &be) {
						t.Fatalf("%s par %d budget %d: error = %v, want *BudgetError", q.name, par, budget, err)
					}
					if be.Stage == "join" {
						joinAborts++
					}
					continue
				}
				mustEqualResults(t, want, got)
			}
		}
	}
	if joinAborts == 0 {
		t.Fatal("no single-shard probe went over its budget at the join stage")
	}
}

// TestTraceProbeShardRows mirrors TestTraceScatterShardRows for bind
// probes: on a multi-shard scatter, every probe span records its input
// batch, and its per-shard row attributes sum to the merged row count.
func TestTraceProbeShardRows(t *testing.T) {
	sg, err := BuildByName(probeDataset(), "hash-subject", 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, q := range probeQueries() {
		sp, err := sg.Prepare(q.text)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New("query")
		var st sparql.ShardStats
		if _, err := sp.Run(context.Background(), sparql.WithParallelism(1),
			sparql.WithTrace(tr), sparql.WithShardStats(&st), sparql.WithScatterOnly()); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		probes := tr.Root().FindAll("probe")
		total += len(probes)
		for _, pr := range probes {
			if _, ok := pr.Int("rows_in"); !ok {
				t.Fatalf("%s: probe span missing rows_in", q.name)
			}
			rows, ok := pr.Int("rows")
			if !ok {
				t.Fatalf("%s: probe span missing rows", q.name)
			}
			var sum int64
			for s := 0; s < 3; s++ {
				if v, ok := pr.Int(fmt.Sprintf("shard_%d_rows", s)); ok {
					sum += v
				}
			}
			if sum != rows {
				t.Fatalf("%s: per-shard probe rows sum to %d, merged %d", q.name, sum, rows)
			}
		}
		// ScatterPatterns counts scans and probes alike: one per
		// pattern sent to the shards.
		if sent := len(tr.Root().FindAll("scatter")) + len(probes); st.ScatterPatterns != sent {
			t.Fatalf("%s: ScatterPatterns = %d, trace recorded %d scans and probes",
				q.name, st.ScatterPatterns, sent)
		}
	}
	if total == 0 {
		t.Fatal("no probe spans recorded")
	}
}

// TestExplainShardedMatchesProbeRuns pins that probes go only to shards
// the static pruning peek admits: for every probe-suite query, the
// run's touched/pruned counts equal ExplainSharded's prediction (and
// stay within it for a BGP that empties early).
func TestExplainShardedMatchesProbeRuns(t *testing.T) {
	triples := probeDataset()
	for _, strat := range []string{"hash-subject", "vertical", "semantic-class"} {
		sg, err := BuildByName(triples, strat, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range probeQueries() {
			sp, err := sg.Prepare(q.text)
			if err != nil {
				t.Fatal(err)
			}
			ex := sp.ExplainShards()
			var st sparql.ShardStats
			if _, err := sp.Run(context.Background(), sparql.WithShardStats(&st)); err != nil {
				t.Fatal(err)
			}
			if st.Route != ex.Route {
				t.Fatalf("%s/%s: run route %s, explain %s", strat, q.name, st.Route, ex.Route)
			}
			if q.empties {
				if st.ShardsTouched > ex.ShardsTouched {
					t.Fatalf("%s/%s: run touched %d shards, explain bound %d",
						strat, q.name, st.ShardsTouched, ex.ShardsTouched)
				}
				continue
			}
			if st.ShardsTouched != ex.ShardsTouched || st.ShardsPruned != ex.ShardsPruned {
				t.Fatalf("%s/%s: run touched/pruned %d/%d, explain predicted %d/%d",
					strat, q.name, st.ShardsTouched, st.ShardsPruned, ex.ShardsTouched, ex.ShardsPruned)
			}
		}
	}
}
