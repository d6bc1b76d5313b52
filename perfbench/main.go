// Command perfbench is the repository benchmark. It measures one named
// workload from outside the program — through the public functions of
// its packages and the server's HTTP interface — and prints every
// metric by name with its unit, then, as the last line, one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// carrying the end-to-end metrics of BENCHMARK.json (--trace 0) or its
// per-layer metrics (--trace 1). Run it from the repository root:
//
//	bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and the metric catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	wl := flag.String("workload", "", "workload: point, analytic, sharded or assess")
	seed := flag.Int64("seed", 1, "seed of the generated dataset and request stream")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: report end-to-end metrics; 1: also run the traced replay and report per-layer metrics")
	flag.Parse()
	if err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names and units it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec() (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, fmt.Errorf("read BENCHMARK.json (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return s, nil
}

// report collects a run's metrics, its environment block and its
// verification outcome.
type report struct {
	Workload string            `json:"workload"`
	Env      map[string]any    `json:"env"`
	Metrics  map[string]entry  `json:"metrics"`
	Notes    []string          `json:"notes,omitempty"`
	Correct  bool              `json:"correct"`
	Attempt  int               `json:"attempted"`
	Failed   int               `json:"failed"`
	Spans    []span            `json:"-"`
	Remarks  map[string]string `json:"remarks,omitempty"` // per-metric remarks
}

// entry is one metric value. Missing marks a percentile withheld for
// lack of samples; N is the sample count behind it, when it has one.
type entry struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n,omitempty"`
	Missing bool    `json:"missing,omitempty"`
}

func newReport(workload string) *report {
	return &report{Workload: workload, Env: map[string]any{}, Metrics: map[string]entry{}, Remarks: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = entry{Value: v, Unit: unit}
}

func (r *report) setN(name string, v float64, unit string, n int) {
	r.Metrics[name] = entry{Value: v, Unit: unit, N: n}
}

// setTail records the q-quantile of xs (ms) only when at least ten
// samples lie beyond it — for a p99, 1,000 samples; otherwise the
// metric is marked missing with its sample count.
func (r *report) setTail(name string, xs []float64, q float64) {
	if v, ok := tail(xs, q); ok {
		r.setN(name, v, "ms", len(xs))
		return
	}
	r.Metrics[name] = entry{Unit: "ms", N: len(xs), Missing: true}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func run(wl string, seed int64, window time.Duration, traced bool) error {
	spec, err := readSpec()
	if err != nil {
		return err
	}
	if window <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	rep := newReport(wl)
	rep.Env["seed"] = seed
	rep.Env["seconds"] = window.Seconds()
	rep.Env["trace"] = traced
	rep.Env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.Env["nproc"] = runtime.NumCPU()
	rep.Env["cpu_model"] = cpuModel()
	rep.Env["go_version"] = runtime.Version()
	rep.Env["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	switch wl {
	case "point", "analytic", "sharded":
		err = runServing(rep, wl, servingSpecs[wl], seed, window, traced)
	case "assess":
		err = runAssess(rep, seed, window)
	default:
		return fmt.Errorf("unknown workload %q (want point, analytic, sharded or assess)", wl)
	}
	if err != nil {
		return err
	}
	return emit(rep, spec, traced)
}

// emit prints the full report, writes it (and any spans) under
// .bench_build/results, and prints the contract line last.
func emit(rep *report, spec benchSpec, traced bool) error {
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	out := map[string]entry{}
	for _, m := range want {
		e, ok := rep.Metrics[m.Name]
		switch {
		case !ok && !traced:
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		case !ok:
			// A layer this workload does not exercise did no work.
			e = entry{Value: 0, Unit: m.Unit}
			rep.Metrics[m.Name] = e
			rep.Remarks[m.Name] = "layer not exercised by this workload"
		case e.Missing:
			return fmt.Errorf("metric %s has too few samples (%d) to report", m.Name, e.N)
		case e.Unit != m.Unit:
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, e.Unit, m.Unit)
		case math.IsNaN(e.Value) || math.IsInf(e.Value, 0):
			return fmt.Errorf("metric %s is not a number", m.Name)
		}
		out[m.Name] = entry{Value: e.Value, Unit: e.Unit}
	}
	printReport(os.Stdout, rep)
	if err := writeResults(rep, traced); err != nil {
		return err
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.Correct, rep.Attempt, rep.Failed, map[string]metricOut{}}
	for k, e := range out {
		line.Metrics[k] = metricOut{e.Value, e.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(b))
	return nil
}

func printReport(w *os.File, rep *report) {
	fmt.Fprintf(w, "workload %s\n", rep.Workload)
	keys := make([]string, 0, len(rep.Env))
	for k := range rep.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "env %-28s %v\n", k, rep.Env[k])
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		e := rep.Metrics[k]
		var val string
		if e.Missing {
			val = "missing"
		} else {
			val = fmt.Sprintf("%.6g", e.Value)
		}
		line := fmt.Sprintf("metric %-40s %14s %-6s", k, val, e.Unit)
		if e.N > 0 {
			line += fmt.Sprintf(" n=%d", e.N)
		}
		if x := rep.Remarks[k]; x != "" {
			line += " (" + x + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "note", n)
	}
	fmt.Fprintf(w, "verification correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempt, rep.Failed)
}

// writeResults keeps the full report, and the spans of a traced run,
// under .bench_build/results in the working directory.
func writeResults(rep *report, traced bool) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("results dir: %w", err)
	}
	trace := 0
	if traced {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%v-trace%d", rep.Workload, rep.Env["seed"], trace)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	if len(rep.Spans) == 0 {
		return nil
	}
	b, err = json.Marshal(rep.Spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".spans.json"), b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// cpuStat is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var st cpuStat
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			st.steal = v
		}
	}
	return st
}

// stealPct is the share of CPU time the hypervisor gave to other guests
// between two samples: a run on a busy host is slower, and this says so.
// It is -1 where /proc/stat is not readable.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return -1
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
