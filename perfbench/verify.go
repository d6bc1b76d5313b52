package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// jsonResults is the SPARQL 1.1 Query Results JSON document the server
// writes for SELECT and ASK.
type jsonResults struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Boolean *bool `json:"boolean"`
	Results struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results"`
}

type jsonTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang"`
	Datatype string `json:"datatype"`
}

func (t jsonTerm) term() rdf.Term {
	switch t.Type {
	case "uri":
		return rdf.NewIRI(t.Value)
	case "bnode":
		return rdf.NewBlank(t.Value)
	}
	if t.Lang != "" {
		return rdf.NewLangLiteral(t.Value, t.Lang)
	}
	if t.Datatype != "" {
		return rdf.NewTypedLiteral(t.Value, t.Datatype)
	}
	return rdf.NewLiteral(t.Value)
}

// decodeResults parses a SPARQL JSON results body back into Results, so
// it can be canonicalized exactly like the reference answer.
func decodeResults(body []byte) (*sparql.Results, error) {
	var doc jsonResults
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decode results: %w", err)
	}
	if doc.Boolean != nil {
		return &sparql.Results{IsAsk: true, Ask: *doc.Boolean}, nil
	}
	res := &sparql.Results{}
	for _, v := range doc.Head.Vars {
		res.Vars = append(res.Vars, sparql.Var(v))
	}
	for _, b := range doc.Results.Bindings {
		row := sparql.Binding{}
		for v, t := range b {
			row[sparql.Var(v)] = t.term()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// sameAnswer reports whether got is exactly the reference answer: the
// same variables and, for a query with ORDER BY, the same rows in the
// same order; otherwise the same multiset of rows. Serving workloads use
// it because their ORDER BY keys are total, and the server promises
// byte-identical answers on every backend.
func sameAnswer(q *sparql.Query, got, want *sparql.Results) bool {
	if got.IsAsk || want.IsAsk {
		return got.IsAsk == want.IsAsk && got.Ask == want.Ask
	}
	if !sameVars(got.Vars, want.Vars) {
		return false
	}
	if len(q.OrderBy) == 0 {
		return equalStrings(got.Canonical(), want.Canonical())
	}
	return equalStrings(got.OrderedCanonical(), want.OrderedCanonical())
}

// tieAwareMatch is the assessment's correctness check. Without
// ORDER BY … LIMIT it is multiset equality (Results.Equal). With it,
// SPARQL 1.1 §15.1 leaves the order among rows with equal sort keys
// undefined, so which of the tied rows survive the LIMIT is up to the
// engine: got passes when its multiset of ORDER BY keys equals the
// reference's and every row of got is a row of the unlimited answer.
func tieAwareMatch(q *sparql.Query, got, want, unlimited *sparql.Results) bool {
	if len(q.OrderBy) == 0 || q.Limit < 0 || unlimited == nil {
		return got.Equal(want)
	}
	if got.IsAsk || got.IsGraph || !sameVars(got.Vars, want.Vars) || len(got.Rows) != len(want.Rows) {
		return false
	}
	keys := func(r *sparql.Results) []string {
		out := make([]string, len(r.Rows))
		for i, b := range r.Rows {
			k := ""
			for _, ok := range q.OrderBy {
				if t, bound := b[ok.Var]; bound {
					k += t.String()
				} else {
					k += "UNBOUND"
				}
				k += "\t"
			}
			out[i] = k
		}
		sort.Strings(out)
		return out
	}
	if !equalStrings(keys(got), keys(want)) {
		return false
	}
	all := map[string]int{}
	for _, k := range unlimited.Canonical() {
		all[k]++
	}
	for _, k := range got.Canonical() {
		if all[k] == 0 {
			return false
		}
		all[k]--
	}
	return true
}

// withoutLimit returns a copy of q with LIMIT and OFFSET removed.
func withoutLimit(q *sparql.Query) *sparql.Query {
	c := *q
	c.Limit = -1
	c.Offset = 0
	return &c
}

func sameVars(a, b []sparql.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
