package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// small is the tier-1 configuration: the real code at 20 k triples, one
// set-up, one measured round.
func small(workload string, seed int64) config {
	return config{workload: workload, seed: seed, triples: 20_000, rounds: 1, setups: 1}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, defs []metricDef, file []benchMetric, bounded bool) {
		want := map[string]string{}
		for _, d := range defs {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s metric %q (%q) is outside the naming rules", kind, d.Name, d.Unit)
			}
			want[d.Name] = d.Unit
		}
		if len(want) != len(defs) {
			t.Errorf("%s metric names repeat", kind)
		}
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(defs))
		}
		for _, m := range file {
			if want[m.Name] != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json says unit %q, the code %q", kind, m.Name, m.Unit, want[m.Name])
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd, true)
	check("per_layer", perLayer, bf.PerLayer, false)
	var got []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	want := append([]string(nil), workloadNames...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json has %v, the code %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("workloads: BENCHMARK.json has %v, the code %v", got, want)
		}
	}
	for n := range exactMetrics {
		found := false
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			found = found || d.Name == n
		}
		if !found {
			t.Errorf("exact metric %s is not a metric", n)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestEstimators(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(xs, 0.90); got != 9 {
		t.Errorf("nearest-rank p90 of 1..10 = %v, want 9", got)
	}
	if got := percentile(xs, 1); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if !near(q1, 1) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}

	// Two cells over three rounds. Cell 0's per-round medians are 2, 2, 9
	// (lower quartile 2); cell 1's are 8, 8, 8. A slow round moves neither.
	rounds := [][][]float64{
		{{2, 2, 2}, {8}},
		{{2, 2, 50}, {8}},
		{{9, 9, 9}, {8}},
	}
	if got := cellGeomean(rounds); !near(got, 4) {
		t.Errorf("cellGeomean = %v, want 4", got)
	}
	// Per-round p90s are 10, 20, 90; the lower quartile of three is the
	// smallest.
	p := roundP90([][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8, 10, 11},
		{20, 20, 20},
		{90},
	})
	if p != 10 {
		t.Errorf("roundP90 = %v, want 10", p)
	}
	if got := fastQuartile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 2.75) {
		t.Errorf("fastQuartile = %v", got)
	}
}

// TestVerdict: the before/after table names a worsening the bound lets
// pass, resolves nothing the spread hides, and applies workloadOnly's bounds
// to the metrics BENCHMARK.json cannot list.
func TestVerdict(t *testing.T) {
	b := benchMetric{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}
	at := func(median, spread float64) series {
		return series{Median: median, Q1: median * (1 - spread/2), Q3: median * (1 + spread/2)}
	}
	for _, c := range []struct {
		before, after series
		want          string
	}{
		{at(1, 0.04), at(1.02, 0.04), "unchanged"},
		{at(1, 0.04), at(1.10, 0.04), "worse (within bound)"},
		{at(1, 0.04), at(1.30, 0.04), "REGRESSED"},
		{at(1, 0.04), at(0.90, 0.04), "improved"},
		{at(1, 0.30), at(1.30, 0.04), "unresolved"},
	} {
		if got := verdict(b.Name, c.before, c.after, b, true); got != c.want {
			t.Errorf("verdict(%v -> %v) = %q, want %q", c.before.Median, c.after.Median, got, c.want)
		}
	}
	higher := benchMetric{Name: "query_qps", Unit: "1/s", Better: "higher", Bound: 0.25}
	if got := verdict("query_qps", at(100, 0.04), at(70, 0.04), higher, true); got != "REGRESSED" {
		t.Errorf("a 30 %% drop of a higher-is-better metric: %q", got)
	}
	if got := verdict("sim_hot_gmean_s", at(1, 0), at(1.0001, 0), benchMetric{}, true); got != "changed (exact)" {
		t.Errorf("a moved exact metric: %q", got)
	}
	for _, m := range workloadOnly {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" {
			t.Errorf("workloadOnly metric %+v", m)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: 1, Span: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{Trace: 1, Span: 2, Parent: 1, Name: "serve.exec", Start: 10, End: 70},
		{Trace: 1, Span: 3, Parent: 2, Name: "core.execute", Start: 120, End: 170},
		{Trace: 1, Span: 4, Parent: 1, Name: "serve.decode", Start: 70, End: 90},
	}
	self := selfTimes(spans)
	want := map[string]int64{"op": 20, "serve.exec": 10, "core.execute": 50, "serve.decode": 20}
	for k, v := range want {
		if int64(self[k]) != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
}

// firstRoundDigest generates a run's ops without executing them.
func firstRoundDigest(t *testing.T, cfg config) uint64 {
	t.Helper()
	cfg = cfg.withDefaults()
	sys, _, _, err := setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := newWorkload(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	if wl.mixed != nil {
		wl.mixed.primeOp()
	}
	wl.lanes(-1)
	return opsDigest(wl.lanes(0))
}

// TestSeedDeterminism: the seed fixes the inputs. The same seed gives the
// same op stream and bit-identical exact metrics; another seed gives other
// ops. Every run must also be correct.
func TestSeedDeterminism(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			t.Parallel() // no assertion here is about time
			a, err := runEndToEnd(small(wl, 1))
			if err != nil {
				t.Fatal(err)
			}
			b, err := runEndToEnd(small(wl, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{a, b} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("run not correct: attempted %d, failed %d", r.Attempted, r.Failed)
				}
				for _, d := range endToEnd {
					v, ok := r.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %+v", d.Name, v)
					}
				}
				if len(r.Metrics) != len(endToEnd) {
					t.Errorf("run printed %d metrics, want %d", len(r.Metrics), len(endToEnd))
				}
			}
			if a.digest != b.digest {
				t.Errorf("same seed, different ops: %x vs %x", a.digest, b.digest)
			}
			if d := firstRoundDigest(t, small(wl, 1)); d != a.digest {
				t.Errorf("digest of generated ops %x, of executed ops %x", d, a.digest)
			}
			if d := firstRoundDigest(t, small(wl, 2)); d == a.digest {
				t.Errorf("different seeds, same ops: %x", d)
			}
			for n := range exactMetrics {
				if _, ok := a.Metrics[n]; ok && a.Metrics[n].Value != b.Metrics[n].Value {
					t.Errorf("exact metric %s differs between identical runs: %v vs %v", n, a.Metrics[n].Value, b.Metrics[n].Value)
				}
			}
		})
	}
}

// TestCorruptedReferenceFailsEveryOp: with every reference hash flipped the
// gate must reject every read, driving error_rate to 1.
func TestCorruptedReferenceFailsEveryOp(t *testing.T) {
	cfg := small(wlStar, 1)
	cfg.corruptRefs = true
	r, err := runEndToEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed != r.Attempted || r.extra["error_rate"].Value != 1 {
		t.Errorf("corrupted references: correct=%v failed=%d of %d, error_rate=%v",
			r.Correct, r.Failed, r.Attempted, r.extra["error_rate"].Value)
	}
}

// TestTracedRun: the staged run prints every per-layer metric, its spans
// form well-formed trees, and the stages account for the handler's time.
func TestTracedRun(t *testing.T) {
	// mixed-rw stages both kinds of op, queries and commits.
	for _, wl := range []string{wlMixed} {
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			r, err := runTraced(small(wl, 1), path)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("traced run not correct: failed %d of %d", r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(r.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				v, ok := r.Metrics[d.Name]
				// The two overheads are differences of timings and may dip
				// below zero; nothing else may.
				diff := d.Name == "serve.exec_overhead_us" || d.Name == "serve.http_overhead_us"
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 && !diff {
					t.Errorf("metric %s = %+v", d.Name, v)
				}
			}
			// Computed, not judged: these subtests share two cores, so the
			// ratio of two timings means little here (alone it is 0.95–1.05).
			if c := r.Metrics["trace.coverage"].Value; !(c > 0) {
				t.Errorf("trace.coverage = %v", c)
			}
			if a, b := r.Metrics["serve.commit_us_empty_delta"].Value, r.Metrics["serve.commit_us_full_delta"].Value; !(a > 0 && b > 0) {
				t.Errorf("commit costs: empty %v, full %v", a, b)
			}

			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			byID := map[uint64]span{}
			var spans []span
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatal(err)
				}
				if _, dup := byID[s.Span]; dup || s.Span == 0 {
					t.Errorf("span id %d repeats or is zero", s.Span)
				}
				byID[s.Span] = s
				spans = append(spans, s)
			}
			if len(spans) == 0 {
				t.Fatal("no spans written")
			}
			roots := map[uint64]int{}
			for _, s := range spans {
				if s.End < s.Start || s.Name == "" || s.Trace == 0 {
					t.Errorf("malformed span %+v", s)
				}
				if s.Parent == 0 {
					roots[s.Trace]++
					continue
				}
				p, ok := byID[s.Parent]
				if !ok || p.Trace != s.Trace {
					t.Errorf("span %+v: parent missing or in another trace", s)
				}
			}
			for tr, n := range roots {
				// A query op has two roots (the staged op and the handler
				// call it is compared with), a commit one.
				if n < 1 || n > 2 {
					t.Errorf("trace %d has %d roots", tr, n)
				}
			}
		})
	}
}
