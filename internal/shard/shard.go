// Package shard turns the partitioning strategies of internal/partition
// from an offline scoring harness into a live execution substrate: a
// ShardedGraph splits one dataset into N rdf.Graph shards under any
// partition.Strategy while sharing a single global dictionary, and
// prepared queries fan out over the shards through the distributed
// executor in internal/sparql (RunSharded) — the survey's central
// claim, that placement decides whether a query runs shard-local or
// pays cross-partition joins, made operational.
//
// The sharding contract:
//
//   - Shared dictionary: every shard encodes through one
//     rdf.Dictionary, so rdf.TermIDs are globally consistent and all
//     cross-shard merging, joining, and deduplication stays in id
//     space.
//   - Determinism: shards preserve the dataset's insertion order and
//     every triple's global position is recorded, so scatter-gather
//     merges are deterministic and (*Prepared).Run output is
//     byte-identical — rows and order — to a single-graph
//     sparql.Prepared.Run over the same data, at any shard count and
//     any parallelism. A scan merges on global position; a bind probe
//     (each shard extends the whole batch of rows bound so far) merges
//     on (input row, global position), the single-graph bind join's
//     row-major order.
//   - Scatter-gather: the seed pattern scans its extent on every shard
//     with candidates; each later pattern that shares a variable with
//     the rows bound so far is a bind probe, and one that shares none
//     (a cartesian factor) is scanned once and joined into the rows.
//     Probes and scans go only to shards whose
//     indexes hold candidates, so touched/pruned counts match
//     ExplainShards.
//   - Pushdown soundness: a single-BGP query whose patterns all share
//     one subject variable pushes down whole to each shard exactly
//     when the placement co-located every subject's triples
//     (SubjectColocated, verified at build time rather than assumed
//     from the strategy's name).
//   - Immutability: a built ShardedGraph is read-only; the shards, the
//     dictionary, and the position index must not be mutated. This is
//     what makes the ShardSet plan memo and unlimited concurrent runs
//     safe.
package shard

import (
	"context"
	"fmt"

	"repro/internal/partition"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// ShardedGraph is one dataset split into N shard graphs around a shared
// dictionary, ready for distributed query execution. Build it once,
// then serve any number of concurrent queries.
type ShardedGraph struct {
	strategy string
	shards   []*rdf.Graph
	dict     *rdf.Dictionary
	set      *sparql.ShardSet
	sizes    []int
	replicas int
}

// Build splits triples into n shards by the strategy's placement. The
// dataset is deduplicated first (RDF graphs are sets); each shard keeps
// its triples in dataset order, every shard encodes through one shared
// dictionary, and the whole-dataset statistics are computed so the
// distributed planner reproduces the single-graph plan. Subject
// co-location — the pushdown soundness condition — is verified from
// the actual placement, not assumed from the strategy.
func Build(triples []rdf.Triple, strat partition.Strategy, n int) (*ShardedGraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	deduped := rdf.Dedupe(triples)
	return buildPlaced(deduped, strat.Place(deduped, n), n, 1, strat.Name())
}

// BuildReplicated is Build with replicas copies of every shard: each
// shard's triples are materialized R times — in-process stand-ins for
// the copies a distributed deployment would place on R nodes — all
// encoding through the one shared dictionary in the same dataset
// order, so any replica of a shard yields byte-identical scans and
// replica failover can never change one row of query output. The
// distributed executor routes each per-shard op to a healthy replica
// (circuit breakers, retry with capped backoff; see internal/sparql);
// a query fails only when every replica of a needed shard is down.
func BuildReplicated(triples []rdf.Triple, strat partition.Strategy, n, replicas int) (*ShardedGraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if replicas < 1 {
		return nil, fmt.Errorf("shard: need at least 1 replica, got %d", replicas)
	}
	deduped := rdf.Dedupe(triples)
	return buildPlaced(deduped, strat.Place(deduped, n), n, replicas, strat.Name())
}

// BuildReplicatedByName is BuildReplicated with the strategy resolved
// from the partition-strategy registry.
func BuildReplicatedByName(triples []rdf.Triple, name string, n, replicas int, opts ...partition.Option) (*ShardedGraph, error) {
	strat, err := partition.ByName(name, opts...)
	if err != nil {
		return nil, err
	}
	return BuildReplicated(triples, strat, n, replicas)
}

// BuildPlaced is Build from an already-computed placement: place[i] is
// the shard of the i-th triple of the already-deduplicated dataset.
// Callers that also score the placement (partition.EvaluatePlacement)
// use this to run the strategy once.
func BuildPlaced(deduped []rdf.Triple, place []int, n int, strategyName string) (*ShardedGraph, error) {
	return buildPlaced(deduped, place, n, 1, strategyName)
}

// buildPlaced is the shared build body; replicas >= 1 is the number of
// copies of each shard to materialize.
func buildPlaced(deduped []rdf.Triple, place []int, n, replicas int, strategyName string) (*ShardedGraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if len(place) != len(deduped) {
		return nil, fmt.Errorf("shard: strategy %s placed %d of %d triples", strategyName, len(place), len(deduped))
	}
	dict := rdf.NewDictionary()
	enc := dict.EncodeAll(deduped)
	pos := make(map[rdf.EncodedTriple]int32, len(enc))
	for i, e := range enc {
		pos[e] = int32(i)
	}

	// Verify subject co-location from the placement itself.
	subjShard := make([]int32, dict.Len())
	for i := range subjShard {
		subjShard[i] = -1
	}
	coloc := true
	buckets := make([][]rdf.Triple, n)
	for i, t := range deduped {
		p := place[i]
		if p < 0 || p >= n {
			return nil, fmt.Errorf("shard: strategy %s placed triple %d on partition %d of %d", strategyName, i, p, n)
		}
		if s := subjShard[enc[i].S]; s < 0 {
			subjShard[enc[i].S] = int32(p)
		} else if int(s) != p {
			coloc = false
		}
		buckets[p] = append(buckets[p], t)
	}

	sg := &ShardedGraph{
		strategy: strategyName,
		shards:   make([]*rdf.Graph, n),
		dict:     dict,
		sizes:    make([]int, n),
		replicas: replicas,
	}
	views := make([]*rdf.EncodedView, n)
	var reps [][]*rdf.EncodedView
	if replicas > 1 {
		reps = make([][]*rdf.EncodedView, n)
	}
	for s, bucket := range buckets {
		// Each replica re-encodes the same bucket through the shared
		// dictionary (same ids, same order), so every replica's view is
		// content-identical — the failover-invisibility invariant.
		rv := make([]*rdf.EncodedView, replicas)
		for r := 0; r < replicas; r++ {
			g := rdf.NewGraphWithDictionary(bucket, dict)
			rv[r] = g.Encoded() // warm: shards are immutable from here on
			if r == 0 {
				sg.shards[s] = g
			}
		}
		views[s] = rv[0]
		if reps != nil {
			reps[s] = rv
		}
		sg.sizes[s] = len(bucket)
	}
	sg.set = &sparql.ShardSet{
		Dict:             dict,
		Views:            views,
		Stats:            rdf.ComputeStats(deduped),
		Pos:              pos,
		SubjectColocated: coloc,
		Replicas:         reps,
	}
	if replicas > 1 {
		sg.set.Health = sparql.NewReplicaHealth(n, replicas)
	}
	return sg, nil
}

// BuildByName is Build with the strategy resolved from the
// partition-strategy registry.
func BuildByName(triples []rdf.Triple, name string, n int, opts ...partition.Option) (*ShardedGraph, error) {
	strat, err := partition.ByName(name, opts...)
	if err != nil {
		return nil, err
	}
	return Build(triples, strat, n)
}

// NumShards returns the shard count.
func (sg *ShardedGraph) NumShards() int { return len(sg.shards) }

// Replicas returns the number of copies of each shard (1 when built
// without replication).
func (sg *ShardedGraph) Replicas() int { return sg.replicas }

// Strategy returns the placing strategy's name.
func (sg *ShardedGraph) Strategy() string { return sg.strategy }

// Len returns the total number of distinct triples across shards.
func (sg *ShardedGraph) Len() int {
	total := 0
	for _, n := range sg.sizes {
		total += n
	}
	return total
}

// ShardSizes returns the per-shard triple counts (read-only).
func (sg *ShardedGraph) ShardSizes() []int { return sg.sizes }

// Shards returns the shard graphs (read-only: mutating a shard breaks
// the sharding contract).
func (sg *ShardedGraph) Shards() []*rdf.Graph { return sg.shards }

// Dict returns the shared dictionary.
func (sg *ShardedGraph) Dict() *rdf.Dictionary { return sg.dict }

// Set returns the evaluator-facing shard set (read-only).
func (sg *ShardedGraph) Set() *sparql.ShardSet { return sg.set }

// SubjectColocated reports whether the placement mapped every subject's
// triples to a single shard.
func (sg *ShardedGraph) SubjectColocated() bool { return sg.set.SubjectColocated }

// Prepared is a query compiled for repeated distributed execution over
// one ShardedGraph. Like sparql.Prepared it is goroutine-safe: any
// number of Run / RunSolutions calls may execute concurrently.
type Prepared struct {
	prep *sparql.Prepared
	sg   *ShardedGraph
}

// Prepare parses text and compiles it for repeated execution over the
// sharded graph.
func (sg *ShardedGraph) Prepare(text string) (*Prepared, error) {
	prep, err := sparql.Prepare(text)
	if err != nil {
		return nil, err
	}
	return &Prepared{prep: prep, sg: sg}, nil
}

// PrepareQuery compiles an already-parsed query (which must not be
// mutated afterwards).
func (sg *ShardedGraph) PrepareQuery(q *sparql.Query) *Prepared {
	return &Prepared{prep: sparql.PrepareQuery(q), sg: sg}
}

// Prepared returns the underlying single-graph preparation (for
// callers that also run the query unsharded).
func (p *Prepared) Prepared() *sparql.Prepared { return p.prep }

// Run evaluates the query across the shards, honoring ctx exactly like
// sparql's (*Prepared).Run. The result is byte-identical — rows and
// order — to a single-graph run over the same dataset.
func (p *Prepared) Run(ctx context.Context, opts ...sparql.RunOption) (*sparql.Results, error) {
	return p.prep.RunSharded(ctx, p.sg.set, opts...)
}

// RunSolutions is Run positioned for streaming (see
// sparql.RunShardedSolutions).
func (p *Prepared) RunSolutions(ctx context.Context, opts ...sparql.RunOption) (*sparql.Solutions, error) {
	return p.prep.RunShardedSolutions(ctx, p.sg.set, opts...)
}

// ExplainShards reports, without executing, which route the query
// takes (pushdown vs scatter-gather) and how many shards its constants
// can touch — the placement payoff made visible.
func (p *Prepared) ExplainShards() sparql.ShardExplain {
	return p.prep.ExplainSharded(p.sg.set)
}
