package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// servingSpec freezes one serving workload: its dataset, and the
// offered rates and latency limit fixed once from the reference seed
// (1) on the reference machine. They are constants so that every later
// run offers exactly the same load.
type servingSpec struct {
	Universities int
	Sharded      bool
	Lo, Hi       float64 // offered rates of the two fixed-rate phases, 1/s
	SearchFrom   float64 // first rate of the max_qps search, 1/s
	LimitMs      float64 // p99 latency limit of the max_qps search
}

var servingSpecs = map[string]servingSpec{
	"point":    {Universities: 190, Lo: 1700, Hi: 4000, SearchFrom: 5500, LimitMs: 50},
	"analytic": {Universities: 190, Lo: 40, Hi: 95, SearchFrom: 135, LimitMs: 250},
	"sharded":  {Universities: 40, Sharded: true, Lo: 25, Hi: 58, SearchFrom: 100, LimitMs: 500},
}

// Sharded serving layout: hash-subject placement, 4 shards × 2 replicas.
const (
	shardStrategy = "hash-subject"
	shardCount    = 4
	shardReplicas = 2
)

// universityConfig is MediumUniversity scaled to n universities, with
// the generator seeded by the benchmark seed.
func universityConfig(n int, seed int64) workload.UniversityConfig {
	cfg := workload.MediumUniversity()
	cfg.Universities = n
	cfg.Seed = seed
	return cfg
}

// servingEnv is one set-up serving workload: the backend, the server on
// a loopback listener, and what setting it up cost.
type servingEnv struct {
	name    string
	spec    servingSpec
	seed    int64
	triples int

	graph *rdf.Graph          // single-graph backend (point, analytic)
	sg    *shard.ShardedGraph // sharded backend
	srv   *server.Server
	hs    *http.Server
	base  string // http://127.0.0.1:port

	genS, graphS, shardS, startS float64
}

// setupServing generates the dataset, builds the backend and starts the
// server with the default server.Config on a loopback listener: every
// step up to the first timed request.
func setupServing(name string, spec servingSpec, seed int64) (*servingEnv, error) {
	e := &servingEnv{name: name, spec: spec, seed: seed}
	t0 := time.Now()
	triples := workload.GenerateUniversity(universityConfig(spec.Universities, seed))
	e.genS = time.Since(t0).Seconds()
	e.triples = len(triples)
	t1 := time.Now()
	if spec.Sharded {
		sg, err := shard.BuildReplicatedByName(triples, shardStrategy, shardCount, shardReplicas)
		if err != nil {
			return nil, fmt.Errorf("build shards: %w", err)
		}
		e.sg = sg
		e.shardS = time.Since(t1).Seconds()
	} else {
		g := rdf.NewGraph(triples)
		g.Encoded()
		g.Stats()
		e.graph = g
		e.graphS = time.Since(t1).Seconds()
	}
	t2 := time.Now()
	if e.sg != nil {
		e.srv = server.NewSharded(e.sg, server.Config{})
	} else {
		e.srv = server.New(e.graph, server.Config{})
	}
	if err := e.listen(); err != nil {
		return nil, err
	}
	e.startS = time.Since(t2).Seconds()
	return e, nil
}

func (e *servingEnv) setupS() float64 { return e.genS + e.graphS + e.shardS + e.startS }

func (e *servingEnv) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.base = "http://" + ln.Addr().String()
	go e.hs.Serve(ln) // returns http.ErrServerClosed after close
	return nil
}

func (e *servingEnv) close() {
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.hs.Shutdown(ctx)
	}
}

// fresh returns a second server over the same backend with the same
// default configuration, on its own listener: the traced replay runs
// against a cold plan cache.
func (e *servingEnv) fresh() (*servingEnv, error) {
	f := &servingEnv{name: e.name, spec: e.spec, graph: e.graph, sg: e.sg}
	if e.sg != nil {
		f.srv = server.NewSharded(e.sg, server.Config{})
	} else {
		f.srv = server.New(e.graph, server.Config{})
	}
	return f, f.listen()
}

// newClients returns one HTTP client per connection, each holding a
// single keep-alive connection to the server.
func newClients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		}}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

func queryURL(base, text string) string { return base + "/sparql?query=" + url.QueryEscape(text) }

// reply is what the generator kept of one answer: status, body size and
// a hash of the body bytes. Bodies are verified after the timed window
// by text (see verifyReplies).
type reply struct {
	status int
	size   int
	hash   uint64
}

// fetch sends one GET and reads the body to the last byte into buf.
func fetch(c *http.Client, buf *bytes.Buffer, u string) reply {
	buf.Reset()
	resp, err := c.Get(u)
	if err != nil {
		return reply{status: -1}
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{status: -1}
	}
	return reply{status: resp.StatusCode, size: buf.Len(), hash: hashBody(buf.Bytes())}
}

func hashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// bodyStore keeps the first 200 body the generator got for each query
// text, for verification after the timed window.
type bodyStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *bodyStore) keep(text string, body []byte) {
	b.mu.Lock()
	if _, ok := b.m[text]; !ok {
		b.m[text] = append([]byte(nil), body...)
	}
	b.mu.Unlock()
}

// serverStats is the part of /stats the benchmark diffs around phases.
type serverStats struct {
	PlanCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"plan_cache"`
	Resources struct {
		Shed uint64 `json:"shed_queries"`
	} `json:"resources"`
}

func getStats(c *http.Client, base string) (serverStats, error) {
	var st serverStats
	resp, err := c.Get(base + "/stats")
	if err != nil {
		return st, fmt.Errorf("get /stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /stats: %w", err)
	}
	return st, nil
}

// phase is one open-loop phase with the requests it sent and the
// answers it got. offered is the rate its schedule realized: arrivals
// over the phase length.
type phase struct {
	name    string
	offered float64
	reqs    []request
	got     []reply
	res     phaseResult
}

// servingRun is everything the timed part of a serving workload
// measured.
type servingRun struct {
	lo, hi      *phase
	steps       []*phase
	maxQPS      float64
	maxResolved bool
	hitRatio    float64
	shedRatio   float64
	goRT        goDelta
	all         []*phase // every phase, warm-up included, for verification
	bodies      *bodyStore
	conns       int
}

// runPhase sends requests drawn from st on schedule sched, a phase of
// length d, and keeps every answer's status and hash, and the first
// body per text.
func (e *servingEnv) runPhase(name string, st *stream, clients []*http.Client, bodies *bodyStore, sched []time.Duration, d, drain time.Duration) *phase {
	p := &phase{name: name, offered: float64(len(sched)) / d.Seconds(), reqs: st.take(len(sched)), got: make([]reply, len(sched))}
	urls := make([]string, len(sched))
	for i, r := range p.reqs {
		urls[i] = queryURL(e.base, r.Text)
	}
	bufs := make([]bytes.Buffer, len(clients))
	p.res = runOpenLoop(sched, d, len(clients), drain, func(conn, k int) bool {
		p.got[k] = fetch(clients[conn], &bufs[conn], urls[k])
		if p.got[k].status != http.StatusOK {
			return false
		}
		bodies.keep(p.reqs[k].Text, bufs[conn].Bytes())
		return true
	})
	return p
}

// passes reports whether a search step met the latency limit without a
// growing backlog: every request answered, the tail latency within the
// limit, and at most maxBacklog of the step's arrivals still waiting to
// be sent when its window closed. The tail is the p99 when the step has
// 1,000 samples, else the highest percentile with ten samples beyond it
// (verdictQuantile).
func (p *phase) passes(limitMs float64) bool {
	if p.res.Failed > 0 || len(p.res.Latency) == 0 {
		return false
	}
	return percentile(p.res.Latency, verdictQuantile(len(p.res.Latency))) <= limitMs &&
		float64(p.res.Queued) <= maxBacklog*float64(p.res.Attempted)
}

// maxBacklog is the share of a search step's arrivals that may still be
// queued in the generator when the step ends. A rate 5% above capacity
// leaves about that share behind, whatever the step's length.
const maxBacklog = 0.05

// verdictQuantile is the quantile a search step of n samples is judged
// on: 0.99, or lower when fewer than ten samples would lie beyond it.
func verdictQuantile(n int) float64 {
	return math.Min(0.99, 1-float64(minBeyond)/float64(n))
}

// searchShare bounds the max_qps search to this multiple of the window.
// A search that would need more steps — on a slow machine, or far from
// the frozen start rate — ends there, its max_qps marked unresolved, so
// a run stays well inside its time limit.
const searchShare = 1.5

// minStepArrivals is the fewest arrivals a search step offers, however
// short 13% of the window is at its rate. A step judges a rate 5% from
// the last, so it must outlast the server's own slow swings: collector
// cycles over a heap of hundreds of MB take seconds. Steps of 13% of a
// 16 s window hold about 170 arrivals at the sharded rates, and their
// verdicts put max_qps at one seed anywhere from 79/s to 111/s.
const minStepArrivals = 400

// timed runs the fixed-rate phases and the max_qps search. The window
// sets their lengths: a warm-up at the lo rate (5%), the lo phase (65%),
// the hi phase (10%), and search steps of 13% each (at least
// minStepArrivals), of which a search that starts near the workload's
// capacity needs two to four. The lo
// phase carries the gated median, so it gets the most samples.
func (e *servingEnv) timed(window time.Duration) (*servingRun, error) {
	// One keep-alive connection per CPU, at most two: the frozen rates
	// were set with two, and more connections on a bigger machine
	// would offer the same rates to a wider server.
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	clients := newClients(conns)
	defer closeClients(clients)
	st := newStream(e.name, universityConfig(e.spec.Universities, e.seed), e.seed)
	run := &servingRun{conns: conns, bodies: &bodyStore{m: map[string][]byte{}}}
	seed := e.seed * 1000003
	drain := 2 * time.Second
	frac := func(f float64) time.Duration { return time.Duration(f * float64(window)) }

	fixed := func(name string, rate float64, d time.Duration, seed int64) *phase {
		return e.runPhase(name, st, clients, run.bodies, poissonSchedule(seed, rate, d), d, drain)
	}
	warm := fixed("warmup", e.spec.Lo, frac(0.05), seed+1)
	run.all = append(run.all, warm)

	before, err := getStats(clients[0], e.base)
	if err != nil {
		return nil, err
	}
	g0 := readGo()
	run.lo = fixed("lo", e.spec.Lo, frac(0.65), seed+2)
	run.hi = fixed("hi", e.spec.Hi, frac(0.10), seed+3)
	run.goRT = diffGo(g0, readGo())
	after, err := getStats(clients[0], e.base)
	if err != nil {
		return nil, err
	}
	run.all = append(run.all, run.lo, run.hi)
	hits := float64(after.PlanCache.Hits - before.PlanCache.Hits)
	misses := float64(after.PlanCache.Misses - before.PlanCache.Misses)
	run.hitRatio = ratio(hits, hits+misses)
	timedRequests := run.lo.res.Attempted + run.hi.res.Attempted
	run.shedRatio = ratio(float64(after.Resources.Shed-before.Resources.Shed), float64(timedRequests))

	// max_qps: a stepped search in 5% steps from the frozen start rate,
	// upward while steps pass and downward while they fail, until a
	// pass/fail pair brackets the limit (or the search's time is spent).
	rate := e.spec.SearchFrom
	var lastPass, lastFail bool
	searchEnd := time.Now().Add(time.Duration(searchShare * float64(window)))
	for i := 0; time.Now().Before(searchEnd) && !(lastPass && lastFail); i++ {
		d := frac(0.13)
		if least := time.Duration(minStepArrivals / rate * float64(time.Second)); d < least {
			d = least
		}
		p := e.runPhase(fmt.Sprintf("step%d", i), st, clients, run.bodies, poissonSchedule(seed+10+int64(i), rate, d), d, time.Duration(4*e.spec.LimitMs*float64(time.Millisecond)))
		run.steps = append(run.steps, p)
		run.all = append(run.all, p)
		if p.passes(e.spec.LimitMs) {
			run.maxQPS = math.Max(run.maxQPS, p.res.throughput())
			lastPass = true
			rate *= 1.05
		} else {
			if !lastPass {
				// Nothing has passed yet: the throughput of the
				// lowest rate tried stands in until a step passes.
				run.maxQPS = p.res.throughput()
			}
			lastFail = true
			rate /= 1.05
		}
	}
	run.maxResolved = lastPass && lastFail
	return run, nil
}

// verification is the outcome of checking every answer of a run.
type verification struct {
	texts   int // distinct query texts checked against the reference
	checked int // answers compared
	wrong   int // answers that differ from the verified reference body
	wrongIn map[string]int
	good    map[string]uint64 // text → hash of its verified body
}

// verifyReplies checks every 200 answer of the run. For each distinct
// text it decodes the first body the generator kept and compares it with
// sparql.Evaluate on the unsharded reference graph; every other answer
// to that text must then be byte-identical to it (same hash).
func (e *servingEnv) verifyReplies(phases []*phase, bodies *bodyStore, ref *rdf.Graph) (verification, error) {
	v := verification{wrongIn: map[string]int{}, good: map[string]uint64{}}
	tmpls := workloadTemplates(e.name)
	tmplOf := map[string]string{}
	var order []string
	for _, p := range phases {
		for k, r := range p.reqs {
			if p.got[k].status != http.StatusOK {
				continue
			}
			if _, ok := tmplOf[r.Text]; !ok {
				order = append(order, r.Text)
				tmplOf[r.Text] = tmpls[r.Tmpl].Name
			}
		}
	}
	var mu sync.Mutex
	var firstErr error
	work := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for text := range work {
				body := bodies.m[text]
				ok, err := answerMatches(text, body, ref)
				mu.Lock()
				switch {
				case err != nil && firstErr == nil:
					firstErr = err
				case ok:
					v.good[text] = hashBody(body)
				}
				mu.Unlock()
			}
		}()
	}
	for _, t := range order {
		work <- t
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return v, firstErr
	}
	v.texts = len(order)
	for _, p := range phases {
		for k, r := range p.reqs {
			if p.got[k].status != http.StatusOK {
				continue
			}
			v.checked++
			if want, ok := v.good[r.Text]; !ok || p.got[k].hash != want {
				v.wrong++
				v.wrongIn[tmplOf[r.Text]]++
			}
		}
	}
	return v, nil
}

// answerMatches reports whether body, a served answer to text, holds
// the reference answer.
func answerMatches(text string, body []byte, ref *rdf.Graph) (bool, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return false, fmt.Errorf("parse %q: %w", text, err)
	}
	want, err := sparql.Evaluate(q, ref)
	if err != nil {
		return false, fmt.Errorf("reference %q: %w", text, err)
	}
	got, err := decodeResults(body)
	return err == nil && sameAnswer(q, got, want), nil
}
