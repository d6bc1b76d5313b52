package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/sparql"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	if xs[0] != 100 {
		t.Error("percentile modified its input")
	}
}

func TestP99NeedsAThousandSamples(t *testing.T) {
	xs := make([]float64, minP99Samples-1)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := tail(xs, 0.99); ok {
		t.Fatalf("p99 reported from %d samples", len(xs))
	}
	rep := newReport("t")
	rep.setTail("x", xs, 0.99)
	if e := rep.Metrics["x"]; !e.Missing || e.N != len(xs) || e.Value != 0 {
		t.Fatalf("short p99 recorded as %+v, want missing with n=%d", e, len(xs))
	}
	xs = append(xs, 1000)
	v, ok := tail(xs, 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v == xs[len(xs)-1] {
		t.Fatal("p99 is the maximum")
	}
}

func TestPoissonScheduleReproducible(t *testing.T) {
	a := poissonSchedule(42, 500, 4*time.Second)
	b := poissonSchedule(42, 500, 4*time.Second)
	if len(a) != 2000 || len(b) != 2000 {
		t.Fatalf("%d and %d arrivals at 500/s over 4s, want exactly 2000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] >= 4*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v, outside the window or out of order", i, a[i])
		}
	}
	c := poissonSchedule(43, 500, 4*time.Second)
	if c[0] == a[0] && c[len(c)-1] == a[len(a)-1] {
		t.Fatal("different seeds gave the same schedule")
	}
}

// A handler that stalls once must be charged to every request queued
// behind the stall: latency runs from the intended send time, and the
// late sends show in the generator lag.
func TestCoordinatedOmission(t *testing.T) {
	const n, gap, stall = 400, time.Millisecond, 60 * time.Millisecond
	sched := make([]time.Duration, n)
	for i := range sched {
		sched[i] = time.Duration(i) * gap
	}
	res := runOpenLoop(sched, n*gap, 1, time.Second, func(conn, k int) bool {
		if k == 100 {
			time.Sleep(stall)
		}
		return true
	})
	if res.Completed != n || res.Failed != 0 {
		t.Fatalf("completed %d failed %d of %d", res.Completed, res.Failed, n)
	}
	// Requests 101.. were due while request 100 stalled; the ones due in
	// the first half of the stall waited at least half of it.
	for k := 101; k < 100+int(stall/gap)/2; k++ {
		if res.Latency[k] < ms(stall)/2 {
			t.Fatalf("request %d queued behind the stall reports %.3f ms", k, res.Latency[k])
		}
	}
	if lag := percentile(res.Lag, 0.99); lag < ms(stall)/2 {
		t.Fatalf("generator lag p99 %.3f ms does not show the %v stall", lag, stall)
	}
	// Measured from the actual send instead, the stall would vanish
	// from every request but the one that stalled.
	if med := median(res.Latency); med > ms(stall)/2 {
		t.Fatalf("median latency %.3f ms: the stall should touch only the requests behind it", med)
	}
}

// The benchmark's decoding of the server's JSON answers must
// canonicalize exactly like Results.Canonical / OrderedCanonical of the
// reference answer.
func TestJSONCanonicalization(t *testing.T) {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	g := rdf.NewGraph([]rdf.Triple{
		{S: ex("a"), P: ex("name"), O: rdf.NewLangLiteral("Ä \"quoted\"\tname", "de")},
		{S: ex("a"), P: ex("age"), O: rdf.NewTypedLiteral("30", rdf.XSDInteger)},
		{S: ex("b"), P: ex("name"), O: rdf.NewLiteral("b\nline")},
		{S: ex("b"), P: ex("age"), O: rdf.NewTypedLiteral("25", rdf.XSDInteger)},
		{S: ex("c"), P: ex("name"), O: rdf.NewBlank("x1")},
		{S: ex("a"), P: ex("mail"), O: rdf.NewLiteral("a@ex")},
	})
	srv := server.New(g, server.Config{})
	for _, text := range []string{
		`SELECT ?s ?n ?m WHERE { ?s <http://ex/name> ?n OPTIONAL { ?s <http://ex/mail> ?m } }`,
		`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY DESC(?a)`,
		`SELECT (COUNT(?s) AS ?c) WHERE { ?s <http://ex/name> ?n }`,
		`ASK { ?s <http://ex/age> ?a }`,
	} {
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sparql.Evaluate(q, g)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(text), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", text, rec.Code)
		}
		got, err := decodeResults(rec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(q, got, want) {
			t.Fatalf("%s: decoded answer differs\ngot  %v\nwant %v", text, got.OrderedCanonical(), want.OrderedCanonical())
		}
		if !want.IsAsk && !equalStrings(got.Canonical(), want.Canonical()) {
			t.Fatalf("%s: Canonical differs", text)
		}
		if len(q.OrderBy) > 0 && !equalStrings(got.OrderedCanonical(), want.OrderedCanonical()) {
			t.Fatalf("%s: OrderedCanonical differs", text)
		}
	}
}

func TestTieAwareMatch(t *testing.T) {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	age := func(v string) rdf.Term { return rdf.NewTypedLiteral(v, rdf.XSDInteger) }
	var triples []rdf.Triple
	for i, a := range []string{"20", "21", "21", "21", "22"} {
		triples = append(triples, rdf.Triple{S: ex(string(rune('a' + i))), P: ex("age"), O: age(a)})
	}
	g := rdf.NewGraph(triples)
	q, err := sparql.Parse(`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sparql.Evaluate(q, g)
	unlimited, _ := sparql.Evaluate(withoutLimit(q), g)
	row := func(s, a string) sparql.Binding { return sparql.Binding{"s": ex(s), "a": age(a)} }
	res := func(rows ...sparql.Binding) *sparql.Results {
		return &sparql.Results{Vars: []sparql.Var{"s", "a"}, Rows: rows}
	}
	// want is a(20) plus two of b, c, d (all 21).
	other := res(row("a", "20"), row("d", "21"), row("c", "21"))
	if !tieAwareMatch(q, other, want, unlimited) {
		t.Error("a different choice among tied rows was rejected")
	}
	if tieAwareMatch(q, res(row("a", "20"), row("b", "21"), row("e", "22")), want, unlimited) {
		t.Error("a row past the ties was accepted")
	}
	if tieAwareMatch(q, res(row("a", "20"), row("b", "21"), row("z", "21")), want, unlimited) {
		t.Error("a row that is not in the answer was accepted")
	}
	if tieAwareMatch(q, res(row("a", "20"), row("b", "21")), want, unlimited) {
		t.Error("a short answer was accepted")
	}
}

func TestStreamReproducible(t *testing.T) {
	cfg := universityConfig(3, 1)
	for _, name := range []string{"point", "analytic", "sharded"} {
		a := newStream(name, cfg, 9).take(200)
		b := newStream(name, cfg, 9).take(200)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs between streams of one seed", name, i)
			}
			if _, err := sparql.Parse(a[i].Text); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// Every stretch of a stream holds each template in its weight's share.
func TestStreamMixIsExact(t *testing.T) {
	st := newStream("sharded", universityConfig(3, 1), 5)
	count := map[int]int{}
	n := 40 * st.total
	for _, r := range st.take(n) {
		count[r.Tmpl]++
	}
	for i, tm := range st.tmpls {
		want := n * tm.Weight / st.total
		if d := count[i] - want; d < -1 || d > 1 {
			t.Errorf("%s: %d of %d requests, want %d", tm.Name, count[i], n, want)
		}
	}
}
