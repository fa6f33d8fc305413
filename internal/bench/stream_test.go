package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// TestRunStream smoke-tests the stream experiment end to end on the shared
// workload: every scheme reports both configurations' cells for every workload
// kind, the scan-LIMIT guard ratio clears the CI threshold, the bounded
// heap shows up in the TopN workload, and the report round-trips through
// JSON (the CI artifact format).
func TestRunStream(t *testing.T) {
	w := testWorkload(t)
	systems, err := BGPSystems(w)
	if err != nil {
		t.Fatal(err)
	}
	opt := StreamOptions{Queries: 3, Seed: 11}
	report, err := RunStream(w, systems, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Identical {
		t.Fatal("report not marked identical across configurations")
	}
	checkStreamGolden(t, report)
	if report.PaperQueries != 12 {
		t.Fatalf("paper queries = %d, want 12", report.PaperQueries)
	}
	if report.LimitQueries != opt.Queries || report.TopNQueries != opt.Queries {
		t.Fatalf("limit/topn queries = %d/%d, want %d each",
			report.LimitQueries, report.TopNQueries, opt.Queries)
	}
	if report.JoinQueries == 0 {
		t.Fatal("join-LIMIT workload is empty")
	}
	kinds := map[string]int{}
	for _, q := range report.Queries {
		kinds[q.Kind]++
		if q.Kind == "topn" && q.System == systems[0].Name && !q.HeapTopN {
			t.Errorf("topn query %q did not use the bounded heap", q.Query)
		}
	}
	if report.StarQueries != 2 {
		t.Fatalf("star queries = %d, want arity 2 and 3", report.StarQueries)
	}
	wantRows := (report.PaperQueries + report.LimitQueries + report.JoinQueries + report.TopNQueries + report.StarQueries) * len(systems)
	if len(report.Queries) != wantRows {
		t.Fatalf("%d query rows, want %d (kinds: %v)", len(report.Queries), wantRows, kinds)
	}
	if report.HeapTopNs == 0 {
		t.Fatal("no streaming run used the bounded heap")
	}
	// The CI regression guard: on the scan-shaped LIMIT workload pipelined
	// peak memory must stay below a quarter of the drained baseline.
	if report.MaxLimitPeakRatio <= 0 || report.MaxLimitPeakRatio > 0.25 {
		t.Fatalf("max LIMIT peak ratio = %f, want in (0, 0.25]", report.MaxLimitPeakRatio)
	}
	if len(report.Systems) != len(systems) {
		t.Fatalf("%d system rows, want %d", len(report.Systems), len(systems))
	}
	for _, s := range report.Systems {
		if s.LimitPeakMat <= 0 || s.LimitPeakStream <= 0 {
			t.Fatalf("%s: peak bytes %d/%d", s.System, s.LimitPeakMat, s.LimitPeakStream)
		}
		if s.LimitPeakRatio <= 0 || s.LimitPeakRatio > 0.25 {
			t.Fatalf("%s: peak ratio = %f", s.System, s.LimitPeakRatio)
		}
		if s.LimitSpeedup <= 0 {
			t.Fatalf("%s: speedup = %f", s.System, s.LimitSpeedup)
		}
		if s.LimitIOStream > s.LimitIOMat {
			t.Fatalf("%s: pipelined read more than drained (%d > %d)",
				s.System, s.LimitIOStream, s.LimitIOMat)
		}
	}

	out := FormatStream(report)
	for _, want := range []string{"byte-identical: true", "regression guard: 0.25", "heap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatStream lacks %q:\n%s", want, out)
		}
	}

	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var back StreamReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.MaxLimitPeakRatio != report.MaxLimitPeakRatio || len(back.Queries) != len(report.Queries) {
		t.Fatal("JSON round trip lost fields")
	}
}

const streamGolden = "testdata/stream.golden"

// streamCells renders every (query, system) row RunStream measured as one
// line: both configurations' (mat = drained, stream = pipelined) simulated
// real and user nanoseconds, physical I/O
// bytes and tracked peak bytes, then the heap-TopN flag.
func streamCells(r *StreamReport) []string {
	ns := func(s float64) int64 { return int64(math.Round(s * 1e9)) }
	cell := func(c StreamRun) string {
		return fmt.Sprintf("%d\t%d\t%d\t%d", ns(c.RealS), ns(c.UserS), c.IOBytes, c.PeakBytes)
	}
	lines := make([]string, 0, len(r.Queries))
	for _, q := range r.Queries {
		lines = append(lines, fmt.Sprintf("%s\t%s\t%s\t%d\tmat\t%s\tstream\t%s\theap=%v",
			q.Kind, q.Query, q.System, q.Rows, cell(q.Materializing), cell(q.Streaming), q.HeapTopN))
	}
	return lines
}

// checkStreamGolden pins the stream experiment per cell, as checkGridGolden
// pins the paper grid: the simulated clock, the I/O volume and the
// tracked (logical) peak are deterministic, so an executor change that moves
// any of them has to show it in the diff of testdata/stream.golden (go test
// ./internal/bench -run TestRunStream -update regenerates it).
func checkStreamGolden(t *testing.T, r *StreamReport) {
	t.Helper()
	got := streamCells(r)
	if *update {
		if err := os.WriteFile(streamGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(got) != len(want) {
		t.Fatalf("stream experiment has %d cells, %s pins %d", len(got), streamGolden, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("stream cell moved (kind, query, system, rows, mat real/user ns, I/O B, peak B, stream same, heap):\n  got  %s\n  want %s", got[i], want[i])
		}
	}
}
