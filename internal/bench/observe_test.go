package bench

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"blackswan/internal/rel"
)

// TestRunObserve runs the observation-only gate end to end on the shared
// workload: every sink × scheme × executor cell is present, every sink
// shows its proof of life, and the report round-trips through JSON (the CI
// artifact format). Identity violations and dead sinks are errors from
// RunObserve itself. The host-time verdict is the one thing not asserted
// here: it is a statement about the box the test runs on, and `swanbench
// observe` is where it gates.
func TestRunObserve(t *testing.T) {
	w := testWorkload(t)
	systems, err := BGPSystems(w)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 4
	report, err := RunObserve(w, systems, queries, 5)
	if errors.Is(err, ErrObserveOverhead) {
		t.Logf("host-time limit exceeded on this run (not asserted in tier-1): %v", err)
	} else if err != nil {
		t.Fatal(err)
	}
	items := len(systems) * queries // systems × queries
	if report.Queries != queries || report.Reps < observeMinReps*items || report.MaxOverhead != ObserveMaxOverhead {
		t.Fatalf("report header: %d queries, %d reps, limit %g", report.Queries, report.Reps, report.MaxOverhead)
	}

	cells := map[[2]string]ObserveCell{}
	for _, c := range report.Cells {
		cells[[2]string{c.Sink, c.System}] = c
	}
	if len(cells) != len(report.Cells) {
		t.Fatalf("duplicate cells: %d distinct of %d", len(cells), len(report.Cells))
	}
	for _, sink := range observeSinks {
		for _, sys := range systems {
			c, ok := cells[[2]string{sink.name, sys.Name}]
			if !ok {
				t.Fatalf("no cell for sink %s on %s", sink.name, sys.Name)
			}
			if c.BaseMs <= 0 || c.SinkMs <= 0 || c.Ratio <= 0 {
				t.Errorf("cell %s/%s: base %f ms, sink %f ms, ratio %f", c.Sink, c.System, c.BaseMs, c.SinkMs, c.Ratio)
			}
		}
	}

	if len(report.Sinks) != len(observeSinks) {
		t.Fatalf("%d sink rows, want %d", len(report.Sinks), len(observeSinks))
	}
	// Executions per sink: one warm-up per item plus every repetition.
	driven := int64(items + report.Reps)
	for i, s := range report.Sinks {
		sink := observeSinks[i]
		if s.Sink != sink.name || s.OverheadRatio <= 0 {
			t.Fatalf("sink row %d: name %q, ratio %f", i, s.Sink, s.OverheadRatio)
		}
		if sink.profile && s.Profiled != driven {
			t.Errorf("%s: %d profiled executions, want %d", s.Sink, s.Profiled, driven)
		}
		if sink.trace && (s.TracesKept != driven || s.Spans == 0) {
			t.Errorf("%s: %d traces kept (%d spans), want %d", s.Sink, s.TracesKept, s.Spans, driven)
		}
		if sink.registry && (s.Fingerprints != queries || s.Observations != driven || s.QuantileChecks != 3*s.Fingerprints) {
			t.Errorf("%s: %d fingerprints, %d observations, %d quantile checks; want %d, %d, %d",
				s.Sink, s.Fingerprints, s.Observations, s.QuantileChecks, queries, driven, 3*queries)
		}
		if sink.profile && sink.registry && (s.QErrorOps == 0 || s.MeanQError < 1 || s.MaxQError < s.MeanQError) {
			t.Errorf("%s: %d q-error operators, mean %f, max %f", s.Sink, s.QErrorOps, s.MeanQError, s.MaxQError)
		}
		if report.BaseAllocsPerOp <= 0 || s.AllocsPerOp < report.BaseAllocsPerOp || s.BytesPerOp < report.BaseBytesPerOp {
			t.Errorf("%s: %.1f allocs and %.0f B a run, baseline %.1f and %.0f", s.Sink, s.AllocsPerOp, s.BytesPerOp,
				report.BaseAllocsPerOp, report.BaseBytesPerOp)
		}
	}

	out := FormatObserve(report)
	for _, want := range []string{"profile", "trace", "workload", "all", "limit: 1.10x", "quantiles within eps", "operator q-errors", systems[0].Name} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatObserve lacks %q:\n%s", want, out)
		}
	}

	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var back ObserveReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(report.Cells) || len(back.Sinks) != len(report.Sinks) ||
		back.Sinks[3].QuantileChecks != report.Sinks[3].QuantileChecks ||
		back.Sinks[1].OverheadRatio != report.Sinks[1].OverheadRatio {
		t.Fatal("JSON round trip lost fields")
	}
}

// TestSameObservation pins the single identity check: equal runs pass, and
// a one-cell row difference, a shape difference and a one-tick difference
// in either simulated charge are each rejected.
func TestSameObservation(t *testing.T) {
	run := func(data []uint64, real, user time.Duration) obsRun {
		return obsRun{rows: &rel.Rel{W: 2, Data: data}, real: real, user: user}
	}
	base := run([]uint64{1, 2, 3, 4}, 100, 60)
	if err := sameObservation(base, run([]uint64{1, 2, 3, 4}, 100, 60)); err != nil {
		t.Fatalf("identical runs rejected: %v", err)
	}
	for name, got := range map[string]obsRun{
		"one cell differs": run([]uint64{1, 2, 3, 5}, 100, 60),
		"rows reordered":   run([]uint64{3, 4, 1, 2}, 100, 60),
		"row missing":      run([]uint64{1, 2}, 100, 60),
		"width differs":    {rows: &rel.Rel{W: 4, Data: []uint64{1, 2, 3, 4}}, real: 100, user: 60},
		"real off by one":  run([]uint64{1, 2, 3, 4}, 101, 60),
		"user off by one":  run([]uint64{1, 2, 3, 4}, 100, 59),
	} {
		if err := sameObservation(base, got); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCheckRank pins the ε rank bound the registry's quantiles are held
// to: over 1..1000 at ε = 0.01 the p50 may sit 11 ranks either side of
// 500, and a never-observed value is rejected outright.
func TestCheckRank(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, v := range []float64{489, 500, 511} {
		if err := checkRank(sorted, 0.50, v, 0.01); err != nil {
			t.Errorf("value %g within the bound rejected: %v", v, err)
		}
	}
	for _, v := range []float64{488, 513, 1, 1000} {
		if err := checkRank(sorted, 0.50, v, 0.01); err == nil {
			t.Errorf("value %g outside the bound accepted", v)
		}
	}
	if err := checkRank(sorted, 0.50, 500.5, 0.01); err == nil {
		t.Error("never-observed value accepted")
	}
	// Ties widen the rank interval: every observation equal means any
	// quantile is that value.
	ties := []float64{7, 7, 7, 7}
	if err := checkRank(ties, 0.99, 7, 0.01); err != nil {
		t.Errorf("tied value rejected: %v", err)
	}
}
