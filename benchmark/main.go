// Command benchmark is the repository's one performance ledger: four
// workloads over the serving stack, end-to-end metrics from an untraced run
// and per-layer metrics from a separate staged run. See README.md here for
// the metric definitions and BENCHMARK.json at the repository root for the
// bounds.
//
//	go run ./benchmark -workload point-lookup -seed 7            # end to end
//	go run ./benchmark -workload point-lookup -seed 7 -trace 1   # per layer
//	go run ./benchmark -repeat 5                                 # noise study
//	go run ./benchmark -compare old.json new.json                # before/after
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. The acceptance driver reads the last line of
// standard output, which carries exactly Correct, Attempted, Failed and
// Metrics; everything else is printed above it, one "metric" line per
// value, for people and for -repeat.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// extra holds values that exist on this workload only (commit
	// latencies on mixed-rw) or are informational (error_rate, rounds).
	extra  map[string]metricValue
	env    map[string]string
	digest uint64
	// walls are the measured rounds' wall times in seconds, in order.
	walls []float64
}

func main() {
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "seed of the generated data and op stream")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 runs the staged per-layer trace instead of the end-to-end run")
		spans    = flag.String("spans", "", "with -trace 1: write the spans to this file as JSON lines")
		repeat   = flag.Int("repeat", 0, "noise study: run every workload this many times and report the spread")
		seeds    = flag.Bool("seeds", false, "with -repeat: give run i the seed seed+i instead of one seed for all")
		out      = flag.String("out", "", "with -repeat: write medians and values to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: old.json new.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare old.json new.json"))
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	case *repeat > 0:
		ok, err := runRepeat(*repeat, *seed, *seconds, *trace != 0, *seeds, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *workload == "" {
		fatal(fmt.Errorf("missing -workload (one of %s)", strings.Join(workloadNames, ", ")))
	}
	runtime.GOMAXPROCS(cores())
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds}
	var res *result
	var err error
	if *trace != 0 {
		res, err = runTraced(cfg, *spans)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		fatal(err)
	}
	res.print()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// envOf describes where and on what the numbers were taken; it heads every
// output so a number is never separated from its conditions.
func envOf(cfg config, sys *system, rounds int) map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"clients":    fmt.Sprint(clientsOf(cfg.workload)),
		"workload":   cfg.workload,
		"seed":       fmt.Sprint(cfg.seed),
		"triples":    fmt.Sprint(sys.w.DS.Graph.Len()),
		"rounds":     fmt.Sprint(rounds),
	}
}

func (r *result) print() {
	keys := make([]string, 0, len(r.env))
	for k := range r.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("env")
	for _, k := range keys {
		fmt.Printf(" %s=%s", k, r.env[k])
	}
	fmt.Println()
	printMetrics := func(m map[string]metricValue) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("metric %s %v %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	printMetrics(r.Metrics)
	printMetrics(r.extra)
	fmt.Printf("round_wall_s %.4f\n", r.walls)
	fmt.Printf("ops digest=%016x attempted=%d failed=%d\n", r.digest, r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// prepared is a run up to the point where measuring starts.
type prepared struct {
	sys            *system
	wl             *workload
	cells          []simCell
	setupS, heapMB float64
}

// prepare is the common head of both kinds of run: set up, generate the op
// stream, take the simulated-clock cells (before anything is served, while
// the buffer pools are the benchmark's alone), compute the references.
func prepare(cfg config) (*prepared, error) {
	sys, setupS, heapMB, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	wl, err := newWorkload(cfg, sys)
	if err != nil {
		return nil, err
	}
	plans, err := sys.compilePlans(wl.simTexts)
	if err != nil {
		return nil, err
	}
	cells, err := sys.simGrid(plans)
	if err != nil {
		return nil, err
	}
	if err := computeRefs(sys, wl, cfg.corruptRefs); err != nil {
		return nil, err
	}
	return &prepared{sys: sys, wl: wl, cells: cells, setupS: setupS, heapMB: heapMB}, nil
}

// runEndToEnd is the untraced run: set up, take the exact simulated-clock
// figures, compute references, measure rounds through the handler.
func runEndToEnd(cfg config) (*result, error) {
	cfg = cfg.withDefaults()
	p, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	sys, wl, cells, setupS, heapMB := p.sys, p.wl, p.cells, p.setupS, p.heapMB
	m, err := measure(cfg, sys, wl)
	if err != nil {
		return nil, err
	}

	var walls, cold, hot []float64
	var cellRounds [][][]float64
	var pooled, commits [][]float64
	var compacts []float64
	var alloc uint64
	for _, r := range m.rounds {
		walls = append(walls, r.wallS)
		cellRounds = append(cellRounds, r.cellMs)
		pooled = append(pooled, r.pooledMs)
		commits = append(commits, r.commitMs)
		compacts = append(compacts, r.compactMs...)
		alloc += r.allocBytes
	}
	for _, c := range cells {
		cold = append(cold, c.coldReal)
		hot = append(hot, c.hotReal)
	}
	vals := map[string]float64{
		"setup_s":                     setupS,
		"query_qps":                   float64(m.rounds[0].queries) / fastQuartile(walls),
		"query_gmean_ms":              cellGeomean(cellRounds),
		"query_p90_ms":                roundP90(pooled),
		"sim_cold_gmean_s":            geomean(cold),
		"sim_hot_gmean_s":             geomean(hot),
		"stored_bytes_per_input_byte": sys.storedBytesPerInputByte(),
		"heap_live_mb":                heapMB,
		"alloc_kb_per_op":             float64(alloc) / 1e3 / float64(m.attempted),
	}
	res := &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metricValue{},
		extra: map[string]metricValue{
			"error_rate": {float64(m.failed) / float64(m.attempted), "ratio"},
		},
		env:    envOf(cfg, sys, len(m.rounds)),
		digest: m.digest,
		walls:  walls,
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	if wl.mixed != nil {
		var p50, p90 []float64
		for _, c := range commits {
			p50 = append(p50, median(c))
			p90 = append(p90, percentile(c, 0.90))
		}
		res.extra["commit_p50_ms"] = metricValue{fastQuartile(p50), "ms"}
		res.extra["commit_p90_ms"] = metricValue{fastQuartile(p90), "ms"}
		res.extra["compact_p50_ms"] = metricValue{median(compacts), "ms"}
	}
	return res, nil
}
