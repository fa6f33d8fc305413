package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The benchmark's vocabulary: workload names, metric names and units.
// BENCHMARK.json at the repository root repeats the names with their
// direction and bound (the acceptance driver reads that file, and so do
// -repeat and -compare); bench_test.go keeps the two in step.

const (
	wlPaper  = "paper-analytic"
	wlStar   = "star-selective"
	wlLookup = "point-lookup"
	wlMixed  = "mixed-rw"
)

var workloadNames = []string{wlPaper, wlStar, wlLookup, wlMixed}

// Sizing. Every round of a workload is the same work, so the constants
// below — not the wall clock — decide what one sample means. They are sized
// for a 2-core sandbox at 400 k triples: a round takes 0.5–2.2 s, so a 20 s
// measured phase holds 9–33 rounds.
const (
	defaultTriples = 400_000
	properties     = 222
	interesting    = 28

	// paper-analytic: a round is paperPasses seeded-shuffled passes over the
	// 12 queries × 4 schemes.
	paperPasses = 2
	// star-selective: starTexts distinct texts (3/4 anchored stars of arity
	// 2–4, 1/4 unbound-property describes), each on every scheme per round.
	starTexts = 60
	// point-lookup: lookupOps requests per round over lookupKeys distinct
	// (s,p) texts drawn Zipf(1.0), against a plan cache of lookupCache
	// entries — smaller than the key set, so hits and misses both occur.
	lookupOps   = 20_000
	lookupKeys  = 4096
	lookupCache = 1024
	// mixed-rw: every commit changes the delta by writeGroup entries, so a
	// round of compactEvery/writeGroup commits is exactly one compaction
	// cycle; each commit is followed by readsPerCommit reads.
	compactEvery   = 768
	writeGroup     = 3
	commitsPerRnd  = compactEvery / writeGroup
	readsPerCommit = 8
	// One read in analyticEvery is paper q1 or q8, alternating; the rest are
	// point lookups.
	analyticEvery = 64
	// Each session starts with sessionPool live groups, so the group a
	// DELETE removes was inserted several cycles ago and sits in the
	// compacted base: the delta then grows by writeGroup on every commit.
	sessionPool = 256

	// minRounds is measured even when -seconds is already spent.
	minRounds = 3
	// setupRuns set-ups are timed per run; setup_s is their median.
	setupRuns = 3
)

// schemeKeys are the short names of the four served schemes, in
// bench.BGPSystems order, used in per-scheme metric names.
var schemeKeys = []string{"rowtriple", "rowvert", "coltriple", "colvert"}

// schemeNames are the serving target names, same order.
var schemeNames = []string{"DBX triple PSO", "DBX vert SO", "MonetDB triple PSO", "MonetDB vert SO"}

type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_qps", "1/s"},
	{"query_gmean_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"sim_cold_gmean_s", "sim_s"},
	{"sim_hot_gmean_s", "sim_s"},
	{"stored_bytes_per_input_byte", "B/B"},
	{"heap_live_mb", "MB"},
	{"alloc_kb_per_op", "kB"},
}

// perLayer lists the metrics a traced run prints, on every workload.
var perLayer = []metricDef{
	{"bgp.canonicalize_us", "us"},
	{"bgp.compile_us", "us"},
	{"bgp.parse_update_us", "us"},
	{"bgp.estimator_build_s", "s"},
	{"serve.prepare_hit_us", "us"},
	{"serve.prepare_miss_us", "us"},
	{"serve.plan_cache_hit_ratio", "ratio"},
	{"serve.exec_overhead_us", "us"},
	{"serve.queue_wait_us", "us"},
	{"serve.decode_ns_per_cell", "ns"},
	{"serve.encode_ns_per_byte", "ns"},
	{"serve.http_overhead_us", "us"},
	{"serve.response_bytes_per_op", "B"},
	{"serve.loopback_p50_us", "us"},
	{"serve.commit_us_empty_delta", "us"},
	{"serve.commit_us_full_delta", "us"},
	{"serve.compact_ms", "ms"},
	{"serve.read_stall_ratio", "ratio"},
	{"core.execute_us.rowtriple", "us"},
	{"core.execute_us.rowvert", "us"},
	{"core.execute_us.coltriple", "us"},
	{"core.execute_us.colvert", "us"},
	{"core.materialize_us.rowtriple", "us"},
	{"core.materialize_us.rowvert", "us"},
	{"core.materialize_us.coltriple", "us"},
	{"core.materialize_us.colvert", "us"},
	{"core.execute_share", "ratio"},
	{"core.rows_scanned_per_row_out", "ratio"},
	{"core.peak_bytes_per_op", "B"},
	{"core.source_batches_per_op", "count"},
	{"core.overlay_scan_slowdown", "ratio"},
	{"core.delta_build_us", "us"},
	{"rowstore.scan_ns_per_row", "ns"},
	{"colstore.scan_ns_per_row", "ns"},
	{"rowstore.lookup_us", "us"},
	{"colstore.lookup_us", "us"},
	{"rowstore.join_ns_per_row", "ns"},
	{"colstore.join_ns_per_row", "ns"},
	{"simio.bytes_read_per_op_cold", "B"},
	{"simio.io_share_cold", "ratio"},
	{"simio.pool_hit_ratio_hot", "ratio"},
	{"simio.cpu_ns_per_op_hot", "sim_ns"},
	{"rdf.term_ns", "ns"},
	{"rdf.lookup_ns", "ns"},
	{"rdf.intern_ns", "ns"},
	{"datagen.generate_s", "s"},
	{"ingest.load_triples_per_s", "1/s"},
	{"ingest.build_schemes_s", "s"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// exactMetrics repeat bit-for-bit between runs with the same seed: they
// count simulated charges, stored bytes or rows, never host time.
var exactMetrics = map[string]bool{
	"sim_cold_gmean_s":              true,
	"sim_hot_gmean_s":               true,
	"stored_bytes_per_input_byte":   true,
	"core.rows_scanned_per_row_out": true,
	"core.source_batches_per_op":    true,
	"core.peak_bytes_per_op":        true,
	"simio.bytes_read_per_op_cold":  true,
	"simio.io_share_cold":           true,
	"simio.pool_hit_ratio_hot":      true,
	"simio.cpu_ns_per_op_hot":       true,
}

// workloadOnly are the end-to-end metrics only mixed-rw has. BENCHMARK.json
// cannot list them — the driver's contract has every workload print every
// end_to_end entry, "never 0" — so their direction and bound live here, and
// -repeat and -compare judge them like the entries of the file.
var workloadOnly = []benchMetric{
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "commit_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "compact_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// benchFile is the part of BENCHMARK.json the tools and the test read.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
