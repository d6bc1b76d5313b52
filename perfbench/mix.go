package main

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// A template is a query text with one constant slot, swept over a
// population of generated entities (WatDiv's template-with-swept-
// constants scheme over the LUBM-shaped graph). Entity constants
// (students, professors, courses) are drawn Zipf-skewed through a seeded
// permutation, so a hot head recurs — and fits the plan cache — while a
// long tail rarely does. Department, university and threshold constants
// are drawn uniformly. Both are assumptions, like the template weights
// (see workloadTemplates): a report over one department is taken to be
// as likely as over any other.
type template struct {
	Name   string
	Weight int    // share of the workload's requests, set by workloadTemplates
	pop    string // population the constant is drawn from
	text   string // fmt pattern with one %s for the constant
}

const (
	popStudent = "student"
	popProf    = "professor"
	popCourse  = "course"
	popDept    = "department"
	popUniv    = "university"
	popAge     = "age" // FILTER threshold of the whole-graph templates
)

func u(local string) string { return "<" + workload.UnivNS + local + ">" }

// pointTemplates are entity lookups: each touches a handful of triples,
// so parse, prepare, plan, admission, HTTP and serialization dominate.
func pointTemplates() []template {
	return []template{
		{Name: "P-student-star", pop: popStudent, text: `SELECT ?n ?a ?d WHERE { %[1]s ` + u("name") + ` ?n . %[1]s ` + u("age") + ` ?a . %[1]s ` + u("memberOf") + ` ?d }`},
		{Name: "P-advisor-path", pop: popStudent, text: `SELECT ?p ?pn ?dept WHERE { %s ` + u("advisor") + ` ?p . ?p ` + u("name") + ` ?pn . ?p ` + u("worksFor") + ` ?dept }`},
		{Name: "P-prof-star", pop: popProf, text: `SELECT ?n ?e ?a ?from WHERE { %[1]s ` + u("name") + ` ?n . %[1]s ` + u("emailAddress") + ` ?e . %[1]s ` + u("age") + ` ?a . %[1]s ` + u("undergraduateDegreeFrom") + ` ?from }`},
		{Name: "P-course-roster", pop: popCourse, text: `SELECT ?s ?n WHERE { ?s ` + u("takesCourse") + ` %s . ?s ` + u("name") + ` ?n }`},
	}
}

// scopedTemplates are the analytic shapes bounded by one department or
// university constant: star, linear, snowflake, triangle, FILTER +
// ORDER BY + LIMIT top-K, OPTIONAL, UNION and GROUP BY COUNT. Every
// ORDER BY ends in a key that makes the order total, so an exact
// row-order comparison is well defined.
func scopedTemplates() []template {
	return []template{
		{Name: "A-dept-star", pop: popDept, text: `SELECT ?s ?n ?a WHERE { ?s ` + u("memberOf") + ` %s . ?s ` + u("name") + ` ?n . ?s ` + u("age") + ` ?a }`},
		{Name: "A-dept-linear", pop: popDept, text: `SELECT ?s ?p ?pn WHERE { ?s ` + u("memberOf") + ` %s . ?s ` + u("advisor") + ` ?p . ?p ` + u("name") + ` ?pn }`},
		{Name: "A-dept-snowflake", pop: popDept, text: `SELECT ?s ?sn ?c ?cn WHERE { ?s ` + u("memberOf") + ` %s . ?s ` + u("name") + ` ?sn . ?s ` + u("takesCourse") + ` ?c . ?c ` + u("name") + ` ?cn }`},
		{Name: "A-dept-triangle", pop: popDept, text: `SELECT ?s ?p ?c WHERE { ?s ` + u("memberOf") + ` %s . ?s ` + u("advisor") + ` ?p . ?p ` + u("teacherOf") + ` ?c . ?s ` + u("takesCourse") + ` ?c }`},
		{Name: "A-dept-topk", pop: popDept, text: `SELECT ?s ?a WHERE { ?s ` + u("memberOf") + ` %s . ?s ` + u("age") + ` ?a . FILTER(?a > 21) } ORDER BY DESC(?a) ?s LIMIT 10`},
		{Name: "A-dept-optional", pop: popDept, text: `SELECT ?p ?n ?c WHERE { ?p ` + u("worksFor") + ` %s . ?p ` + u("name") + ` ?n OPTIONAL { ?p ` + u("teacherOf") + ` ?c } }`},
		{Name: "A-dept-union", pop: popDept, text: `SELECT ?x WHERE { { ?x ` + u("memberOf") + ` %[1]s } UNION { ?x ` + u("worksFor") + ` %[1]s } }`},
		{Name: "A-univ-count", pop: popUniv, text: `SELECT ?d (COUNT(?s) AS ?n) WHERE { ?d ` + u("subOrganizationOf") + ` %s . ?s ` + u("memberOf") + ` ?d } GROUP BY ?d`},
	}
}

// wholeGraphTemplates scan a whole predicate of the graph: a top-K and a
// count over every age. They set the analytic tail.
func wholeGraphTemplates() []template {
	return []template{
		{Name: "W-age-topk", pop: popAge, text: `SELECT ?s ?a WHERE { ?s ` + u("age") + ` ?a . FILTER(?a > %s) } ORDER BY DESC(?a) ?s LIMIT 10`},
		{Name: "W-age-count", pop: popAge, text: `SELECT (COUNT(?s) AS ?n) WHERE { ?s ` + u("age") + ` ?a . FILTER(?a > %s) }`},
	}
}

// workloadTemplates returns the request mix of a serving workload. No
// published query log describes this service's traffic, so the weights
// are an assumption that favours no template: every template is equally
// frequent, except that in analytic the two whole-graph templates
// together take one request in twenty (8 of 160), the share the
// workload is defined with.
func workloadTemplates(name string) []template {
	var out []template
	add := func(ts []template, weight int) {
		for _, t := range ts {
			t.Weight = weight
			out = append(out, t)
		}
	}
	switch name {
	case "point":
		add(pointTemplates(), 1)
	case "analytic":
		add(scopedTemplates(), 19)
		add(wholeGraphTemplates(), 4)
	case "sharded":
		add(pointTemplates(), 1)
		add(scopedTemplates(), 1)
	}
	return out
}

// request is one element of a workload's request stream.
type request struct {
	Tmpl int // index into the workload's templates
	Text string
}

// zipfS is the Zipf exponent of entity popularity, an assumption: no
// published SPARQL log gives one for entity lookups. Web-request
// popularity follows Zipf-like laws with exponents a little below 1
// (0.64–0.83 in Breslau et al., "Web Caching and Zipf-like
// Distributions", INFOCOM 1999); math/rand's Zipf needs s > 1, and 1.1
// is close to that range.
const zipfS = 1.1

// population lists one kind of entity of a generated university graph
// in a seeded random order: rank r of the Zipf draw maps to ids[r]. A
// population without a Zipf draw is sampled uniformly.
type population struct {
	ids  []string
	zipf *rand.Zipf
}

// skewed reports whether constants of pop are drawn Zipf-skewed.
func skewed(pop string) bool { return pop == popStudent || pop == popProf || pop == popCourse }

// stream yields the seeded request stream of one serving workload over
// a university graph generated with cfg. The same seed always yields
// the same sequence of texts.
//
// Templates are interleaved by smooth weighted round robin from a
// seeded starting state, not drawn independently: every stretch of the
// stream holds each template in its weight's share, give or take one
// request. The mixes join templates whose costs differ a hundredfold,
// so with independent draws the share of slow ones in a phase — and
// with it the phase's median — would vary from run to run.
type stream struct {
	tmpls   []template
	current []int // smooth weighted round-robin state
	total   int
	rng     *rand.Rand
	pops    map[string]*population
}

func newStream(name string, cfg workload.UniversityConfig, seed int64) *stream {
	s := &stream{tmpls: workloadTemplates(name), rng: rand.New(rand.NewSource(seed*7919 + 17)), pops: map[string]*population{}}
	for _, t := range s.tmpls {
		s.total += t.Weight
	}
	for _, t := range s.tmpls {
		s.current = append(s.current, s.rng.Intn(s.total))
		if s.pops[t.pop] == nil {
			s.pops[t.pop] = s.newPopulation(entities(t.pop, cfg), skewed(t.pop))
		}
	}
	return s
}

func (s *stream) newPopulation(ids []string, zipf bool) *population {
	s.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	p := &population{ids: ids}
	if zipf {
		p.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(ids)-1))
	}
	return p
}

// entities enumerates the constants of one population, in generator
// order, for a university graph of the given shape.
func entities(pop string, cfg workload.UniversityConfig) []string {
	var out []string
	each := func(perDept int, kind string) {
		for un := 0; un < cfg.Universities; un++ {
			for d := 0; d < cfg.DepartmentsPerUniv; d++ {
				for i := 0; i < perDept; i++ {
					out = append(out, u(fmt.Sprintf("univ%d.dept%d.%s%d", un, d, kind, i)))
				}
			}
		}
	}
	switch pop {
	case popStudent:
		each(cfg.StudentsPerDept, "stud")
	case popProf:
		each(cfg.ProfessorsPerDept, "prof")
	case popCourse:
		each(cfg.CoursesPerDept, "course")
	case popDept:
		for un := 0; un < cfg.Universities; un++ {
			for d := 0; d < cfg.DepartmentsPerUniv; d++ {
				out = append(out, u(fmt.Sprintf("univ%d.dept%d", un, d)))
			}
		}
	case popUniv:
		for un := 0; un < cfg.Universities; un++ {
			out = append(out, u(fmt.Sprintf("univ%d", un)))
		}
	case popAge:
		// Student ages are 18–29: thresholds 20–28 keep 1–9 of the
		// twelve ages, so the scans always filter but never empty.
		for a := 20; a <= 28; a++ {
			out = append(out, fmt.Sprint(a))
		}
	}
	return out
}

// next returns the next request of the stream.
func (s *stream) next() request {
	i := 0
	for j, t := range s.tmpls {
		s.current[j] += t.Weight
		if s.current[j] > s.current[i] {
			i = j
		}
	}
	s.current[i] -= s.total
	t := s.tmpls[i]
	p := s.pops[t.pop]
	var c string
	if p.zipf != nil {
		c = p.ids[p.zipf.Uint64()]
	} else {
		c = p.ids[s.rng.Intn(len(p.ids))]
	}
	return request{Tmpl: i, Text: fmt.Sprintf(t.text, c)}
}

// take returns the next n requests.
func (s *stream) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}
