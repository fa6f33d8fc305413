package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync"
	"testing"
	"time"

	"blackswan/internal/bench"
	"blackswan/internal/datagen"
	"blackswan/internal/serve"
	"blackswan/internal/trace"
)

// TestFingerprintStable pins the fingerprint function: equal canonical
// texts agree, different texts disagree, and the format is 16 hex digits
// (dashboards and logs join on it, so it must not drift).
func TestFingerprintStable(t *testing.T) {
	a := serve.Fingerprint("SELECT ?s WHERE { ?s ?p ?o }")
	b := serve.Fingerprint("SELECT ?s WHERE { ?s ?p ?o }")
	c := serve.Fingerprint("SELECT ?o WHERE { ?s ?p ?o }")
	if a != b {
		t.Fatalf("same text, different fingerprints: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("different texts share fingerprint %s", a)
	}
	if len(a) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex digits", a)
	}
	for _, r := range a {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			t.Fatalf("fingerprint %q contains non-hex %q", a, r)
		}
	}
}

// TestWorkloadRegistryAggregates drives a known mix of queries and checks
// the registry's per-fingerprint aggregates: counts, cache hits, rows,
// per-system splits, quantile counts and the ordering/filter parameters.
func TestWorkloadRegistryAggregates(t *testing.T) {
	_, sys, _ := fixture(t)
	svc := newService(t, serve.Config{})
	texts := queryTexts(t, 3)
	ctx := context.Background()

	// texts[0] runs 4× on system A and 2× on system B; texts[1] runs 2×
	// on A; texts[2] runs once on B.
	sysA, sysB := sys[0].Name, sys[1].Name
	rows := map[string]int64{}
	runs := []struct {
		text   string
		system string
		n      int
	}{
		{texts[0], sysA, 4},
		{texts[0], sysB, 2},
		{texts[1], sysA, 2},
		{texts[2], sysB, 1},
	}
	for _, r := range runs {
		for i := 0; i < r.n; i++ {
			res, err := svc.ExecText(ctx, r.text, r.system)
			if err != nil {
				t.Fatal(err)
			}
			rows[r.text] += int64(res.Rows.Len())
		}
	}

	ws := svc.Workload(serve.WorkloadQuery{Limit: -1})
	if ws == nil {
		t.Fatal("registry disabled despite default config")
	}
	if ws.Fingerprints != 3 {
		t.Fatalf("fingerprints = %d, want 3", ws.Fingerprints)
	}
	if ws.Observations != 9 {
		t.Fatalf("observations = %d, want 9", ws.Observations)
	}
	byFP := map[string]serve.WorkloadEntry{}
	for _, e := range ws.Entries {
		byFP[e.Fingerprint] = e
	}
	e0, ok := byFP[serve.Fingerprint(texts[0])]
	if !ok {
		t.Fatalf("registry lost fingerprint of %q", texts[0])
	}
	if e0.Count != 6 {
		t.Fatalf("entry count = %d, want 6", e0.Count)
	}
	// The first execution compiled; all five repeats hit the plan cache.
	if e0.CacheHits != 5 {
		t.Fatalf("cache hits = %d, want 5", e0.CacheHits)
	}
	if e0.Rows != rows[texts[0]] {
		t.Fatalf("rows = %d, want %d", e0.Rows, rows[texts[0]])
	}
	if e0.Latency.Count != 6 || e0.Queued.Count != 6 {
		t.Fatalf("quantile counts = %d/%d, want 6/6", e0.Latency.Count, e0.Queued.Count)
	}
	if e0.Query != texts[0] && e0.Query == "" {
		t.Fatalf("entry lost its canonical text")
	}
	if e0.Plan == "" {
		t.Fatal("entry has no rendered plan")
	}
	if e0.FirstSeen.IsZero() || e0.LastSeen.Before(e0.FirstSeen) {
		t.Fatalf("bad seen window: first=%v last=%v", e0.FirstSeen, e0.LastSeen)
	}
	if len(e0.Systems) != 2 {
		t.Fatalf("per-system splits = %d, want 2", len(e0.Systems))
	}
	splits := map[string]int64{}
	for _, s := range e0.Systems {
		splits[s.System] = s.Count
	}
	if splits[sysA] != 4 || splits[sysB] != 2 {
		t.Fatalf("per-system counts = %v, want %s:4 %s:2", splits, sysA, sysB)
	}

	// Ordering by count puts the 6-execution shape first.
	ws = svc.Workload(serve.WorkloadQuery{Limit: -1, By: "count"})
	if ws.Entries[0].Fingerprint != serve.Fingerprint(texts[0]) {
		t.Fatalf("by=count leader = %s, want fingerprint of texts[0]", ws.Entries[0].Fingerprint)
	}
	// The top-K counters agree.
	if len(ws.TopByCount) == 0 || ws.TopByCount[0].Key != serve.Fingerprint(texts[0]) || ws.TopByCount[0].Count != 6 {
		t.Fatalf("topByCount = %+v, want texts[0] at 6", ws.TopByCount)
	}

	// The system filter keeps only fingerprints that ran on the target.
	ws = svc.Workload(serve.WorkloadQuery{Limit: -1, System: sysB})
	if len(ws.Entries) != 2 {
		t.Fatalf("system filter kept %d entries, want 2", len(ws.Entries))
	}
	for _, e := range ws.Entries {
		if e.Fingerprint == serve.Fingerprint(texts[1]) {
			t.Fatalf("system filter kept %q, which never ran on %s", e.Query, sysB)
		}
	}

	// Limit truncates after ordering.
	ws = svc.Workload(serve.WorkloadQuery{Limit: 1, By: "count"})
	if len(ws.Entries) != 1 || ws.Entries[0].Count != 6 {
		t.Fatalf("limit=1 by=count returned %d entries (count %d)", len(ws.Entries), ws.Entries[0].Count)
	}
	// Totals are unaffected by entry selection.
	if ws.Fingerprints != 3 || ws.Observations != 9 {
		t.Fatalf("limited snapshot totals = %d/%d, want 3/9", ws.Fingerprints, ws.Observations)
	}
}

// TestWorkloadObservationOnly is the registry's contract in miniature
// (the observe experiment enforces the full version with simulated
// charges): rows are byte-identical with the registry on and off.
func TestWorkloadObservationOnly(t *testing.T) {
	_, sys, _ := fixture(t)
	on := newService(t, serve.Config{})
	off := newService(t, serve.Config{WorkloadCapacity: -1})
	if off.Workload(serve.WorkloadQuery{}) != nil {
		t.Fatal("negative WorkloadCapacity did not disable the registry")
	}
	ctx := context.Background()
	for _, text := range queryTexts(t, 4) {
		for _, s := range sys {
			a, err := on.ExecText(ctx, text, s.Name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := off.ExecText(ctx, text, s.Name)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
				t.Fatalf("%s: rows differ with registry on for %q", s.Name, text)
			}
		}
	}
	if ws := on.Workload(serve.WorkloadQuery{Limit: -1}); ws.Observations == 0 {
		t.Fatal("registry-on service recorded nothing")
	}
}

// TestWorkloadQErrorFeedback profiles executions and checks the
// cardinality-drift loop: per-operator q-error aggregates appear, are
// internally consistent (1 <= mean <= max) and accumulate across
// repeated profiled runs.
func TestWorkloadQErrorFeedback(t *testing.T) {
	_, sys, _ := fixture(t)
	svc := newService(t, serve.Config{})
	text := queryTexts(t, 1)[0]
	ctx := context.Background()

	// One unprofiled execution: no drift data yet.
	if _, err := svc.ExecText(ctx, text, sys[0].Name); err != nil {
		t.Fatal(err)
	}
	ws := svc.Workload(serve.WorkloadQuery{Limit: -1})
	if got := ws.Entries[0]; len(got.Ops) != 0 || got.Profiled != 0 {
		t.Fatalf("unprofiled execution produced ops=%d profiled=%d", len(got.Ops), got.Profiled)
	}

	for i := 0; i < 3; i++ {
		if _, err := svc.ExecTextOpts(ctx, text, sys[0].Name, serve.ExecOpts{Profile: true}); err != nil {
			t.Fatal(err)
		}
	}
	ws = svc.Workload(serve.WorkloadQuery{Limit: -1, By: "qerror"})
	e := ws.Entries[0]
	if e.Profiled != 3 {
		t.Fatalf("profiled = %d, want 3", e.Profiled)
	}
	if len(e.Ops) == 0 {
		t.Fatal("profiled executions folded no per-operator aggregates")
	}
	if e.MaxQError < 1 {
		t.Fatalf("max q-error = %g, want >= 1", e.MaxQError)
	}
	for _, op := range e.Ops {
		if op.Count != 3 {
			t.Fatalf("op %q count = %d, want 3 (one per profiled run)", op.Op, op.Count)
		}
		if op.MeanQError < 1 || op.MaxQError < op.MeanQError-1e-9 {
			t.Fatalf("op %q q-errors inconsistent: mean %g max %g", op.Op, op.MeanQError, op.MaxQError)
		}
		if op.LastRows < 0 {
			t.Fatalf("op %q lastRows = %d", op.Op, op.LastRows)
		}
	}
}

// TestWorkloadEviction bounds the registry: with capacity 2 and 4 query
// shapes, details for at most 2 survive, evictions are counted, and the
// eviction-surviving top-K counters still know every fingerprint.
func TestWorkloadEviction(t *testing.T) {
	_, sys, _ := fixture(t)
	svc := newService(t, serve.Config{WorkloadCapacity: 2})
	texts := queryTexts(t, 4)
	ctx := context.Background()
	// Distinct execution counts so the eviction order is deterministic:
	// later texts run more, so earlier (colder) ones are evicted.
	for i, text := range texts {
		for n := 0; n <= i; n++ {
			if _, err := svc.ExecText(ctx, text, sys[0].Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	ws := svc.Workload(serve.WorkloadQuery{Limit: -1})
	if ws.Fingerprints != 2 {
		t.Fatalf("fingerprints = %d, want capacity 2", ws.Fingerprints)
	}
	if ws.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", ws.Evicted)
	}
	if ws.Observations != 10 {
		t.Fatalf("observations = %d, want 10 (evictions must not erase totals)", ws.Observations)
	}
	if len(ws.TopByCount) != 4 {
		t.Fatalf("topByCount tracks %d fingerprints, want all 4", len(ws.TopByCount))
	}
	// The hottest shape was never evicted.
	hot := serve.Fingerprint(texts[3])
	found := false
	for _, e := range ws.Entries {
		if e.Fingerprint == hot {
			found = true
			if e.Count != 4 {
				t.Fatalf("hottest entry count = %d, want 4", e.Count)
			}
		}
	}
	if !found {
		t.Fatal("hottest fingerprint was evicted")
	}
}

// TestWorkloadConcurrent hammers the registry from concurrent clients —
// the -race test of the record path — and checks the totals balance.
func TestWorkloadConcurrent(t *testing.T) {
	_, sys, _ := fixture(t)
	svc := newService(t, serve.Config{})
	texts := queryTexts(t, 4)
	ctx := context.Background()
	const clients = 8
	const opsPer = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				text := texts[(c+i)%len(texts)]
				system := sys[(c+i)%len(sys)].Name
				opt := serve.ExecOpts{Profile: i%3 == 0}
				if _, err := svc.ExecTextOpts(ctx, text, system, opt); err != nil {
					errs <- err
					return
				}
				// Interleave reads with writes: snapshots must be safe
				// under concurrent recording.
				if i%4 == 0 {
					_ = svc.Workload(serve.WorkloadQuery{Limit: 2})
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ws := svc.Workload(serve.WorkloadQuery{Limit: -1})
	if ws.Observations != clients*opsPer {
		t.Fatalf("observations = %d, want %d", ws.Observations, clients*opsPer)
	}
	if ws.Fingerprints != len(texts) {
		t.Fatalf("fingerprints = %d, want %d", ws.Fingerprints, len(texts))
	}
	var total int64
	for _, e := range ws.Entries {
		total += e.Count
	}
	if total != clients*opsPer {
		t.Fatalf("per-entry counts sum to %d, want %d", total, clients*opsPer)
	}
}

// TestWorkloadSlowLogJoin checks the slow-log side of the feedback loop:
// slow entries carry the fingerprint and the registry's count/p99 context.
func TestWorkloadSlowLogJoin(t *testing.T) {
	_, sys, _ := fixture(t)
	svc := newService(t, serve.Config{SlowQueryThreshold: time.Nanosecond})
	text := queryTexts(t, 1)[0]
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := svc.ExecText(ctx, text, sys[0].Name); err != nil {
			t.Fatal(err)
		}
	}
	entries := svc.SlowQueries()
	if len(entries) != 3 {
		t.Fatalf("slow log has %d entries, want 3", len(entries))
	}
	fp := serve.Fingerprint(text)
	// Newest first: the last execution saw the registry at count 3.
	if entries[0].Fingerprint != fp {
		t.Fatalf("slow entry fingerprint = %q, want %q", entries[0].Fingerprint, fp)
	}
	if entries[0].FingerprintCount != 3 {
		t.Fatalf("slow entry fingerprint count = %d, want 3", entries[0].FingerprintCount)
	}
	if entries[0].FingerprintP99 <= 0 {
		t.Fatalf("slow entry fingerprint p99 = %v", entries[0].FingerprintP99)
	}
}

// TestHTTPWorkload exercises /debug/workload over HTTP: payload shape,
// ordering and filter parameters, parameter validation, and the disabled
// case.
func TestHTTPWorkload(t *testing.T) {
	_, sys, _ := fixture(t)
	svc, srv := httpFixture(t)
	texts := queryTexts(t, 2)
	ctx := context.Background()
	for i, text := range texts {
		for n := 0; n <= i; n++ {
			if _, err := svc.ExecText(ctx, text, sys[0].Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := svc.ExecTextOpts(ctx, texts[0], sys[1].Name, serve.ExecOpts{Profile: true}); err != nil {
		t.Fatal(err)
	}

	var ws serve.WorkloadSnapshot
	getJSON(t, srv.URL+"/debug/workload", http.StatusOK, &ws)
	if ws.Fingerprints != 2 || ws.Observations != 4 {
		t.Fatalf("totals = %d fingerprints / %d observations, want 2/4", ws.Fingerprints, ws.Observations)
	}
	if len(ws.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(ws.Entries))
	}
	for _, e := range ws.Entries {
		if e.Fingerprint == "" || e.Query == "" || e.Plan == "" {
			t.Fatalf("entry missing identity fields: %+v", e)
		}
		if e.Latency.Count != e.Count {
			t.Fatalf("entry %s: latency sketch count %d != count %d", e.Fingerprint, e.Latency.Count, e.Count)
		}
	}

	// by=count orders the two-execution shape first; limit truncates.
	getJSON(t, srv.URL+"/debug/workload?by=count&limit=1", http.StatusOK, &ws)
	if len(ws.Entries) != 1 {
		t.Fatalf("limit=1 returned %d entries", len(ws.Entries))
	}
	if ws.Entries[0].Fingerprint != serve.Fingerprint(texts[1]) {
		t.Fatalf("by=count leader = %s, want fingerprint of texts[1]", ws.Entries[0].Fingerprint)
	}

	// The profiled run on sys[1] makes texts[0] the only shape there.
	getJSON(t, srv.URL+"/debug/workload?system="+url.QueryEscape(sys[1].Name), http.StatusOK, &ws)
	if len(ws.Entries) != 1 || ws.Entries[0].Fingerprint != serve.Fingerprint(texts[0]) {
		t.Fatalf("system filter: got %d entries", len(ws.Entries))
	}
	if len(ws.Entries[0].Ops) == 0 {
		t.Fatal("profiled shape serves no per-operator q-error aggregates")
	}

	// Parameter validation.
	var er serve.ErrorResponse
	getJSON(t, srv.URL+"/debug/workload?by=bogus", http.StatusBadRequest, &er)
	getJSON(t, srv.URL+"/debug/workload?limit=x", http.StatusBadRequest, &er)

	// A registry-disabled service 404s.
	off := newService(t, serve.Config{WorkloadCapacity: -1})
	offSrv := httptest.NewServer(serve.NewHandler(off))
	defer offSrv.Close()
	getJSON(t, offSrv.URL+"/debug/workload", http.StatusNotFound, &er)
}

// TestHTTPSlowFilters exercises /debug/slow's system and limit filters
// (Content-Type is asserted by getJSON on every response).
func TestHTTPSlowFilters(t *testing.T) {
	_, sys, _ := fixture(t)
	svc := newService(t, serve.Config{SlowQueryThreshold: time.Nanosecond})
	srv := httptest.NewServer(serve.NewHandler(svc))
	defer srv.Close()
	text := queryTexts(t, 1)[0]
	ctx := context.Background()
	for _, s := range sys[:2] {
		for i := 0; i < 2; i++ {
			if _, err := svc.ExecText(ctx, text, s.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	var entries []serve.SlowEntry
	getJSON(t, srv.URL+"/debug/slow", http.StatusOK, &entries)
	if len(entries) != 4 {
		t.Fatalf("unfiltered slow log has %d entries, want 4", len(entries))
	}
	getJSON(t, srv.URL+"/debug/slow?system="+url.QueryEscape(sys[0].Name), http.StatusOK, &entries)
	if len(entries) != 2 {
		t.Fatalf("system filter kept %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		if e.System != sys[0].Name {
			t.Fatalf("filtered entry names system %q", e.System)
		}
	}
	getJSON(t, srv.URL+"/debug/slow?limit=1", http.StatusOK, &entries)
	if len(entries) != 1 {
		t.Fatalf("limit=1 kept %d entries", len(entries))
	}
	getJSON(t, srv.URL+"/debug/slow?system="+url.QueryEscape(sys[1].Name)+"&limit=1", http.StatusOK, &entries)
	if len(entries) != 1 || entries[0].System != sys[1].Name {
		t.Fatalf("combined filter: %+v", entries)
	}
	var er serve.ErrorResponse
	getJSON(t, srv.URL+"/debug/slow?limit=x", http.StatusBadRequest, &er)
}

// TestHTTPTraceFilters exercises /debug/traces' system and limit filters:
// a trace matches when its execute span named the target.
func TestHTTPTraceFilters(t *testing.T) {
	_, sys, _ := fixture(t)
	tracer := trace.New(trace.Config{SampleRate: 1, Seed: 3})
	svc := newService(t, serve.Config{Tracer: tracer})
	srv := httptest.NewServer(serve.NewHandler(svc))
	defer srv.Close()
	text := queryTexts(t, 1)[0]
	ctx := context.Background()
	for _, s := range sys[:2] {
		for i := 0; i < 2; i++ {
			tctx, _, finish := svc.TraceStart(ctx, "query", "")
			_, err := svc.ExecText(tctx, text, s.Name)
			finish(err)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	var tr serve.TracesResponse
	getJSON(t, srv.URL+"/debug/traces", http.StatusOK, &tr)
	if len(tr.Traces) != 4 {
		t.Fatalf("unfiltered traces = %d, want 4", len(tr.Traces))
	}
	getJSON(t, srv.URL+"/debug/traces?system="+url.QueryEscape(sys[0].Name), http.StatusOK, &tr)
	if len(tr.Traces) != 2 {
		t.Fatalf("system filter kept %d traces, want 2", len(tr.Traces))
	}
	getJSON(t, srv.URL+"/debug/traces?limit=3", http.StatusOK, &tr)
	if len(tr.Traces) != 3 {
		t.Fatalf("limit=3 kept %d traces", len(tr.Traces))
	}
	// Stats are the tracer's totals regardless of the filter.
	if tr.Stats.Kept != 4 {
		t.Fatalf("stats kept = %d, want 4", tr.Stats.Kept)
	}
	var er serve.ErrorResponse
	getJSON(t, srv.URL+"/debug/traces?limit=x", http.StatusBadRequest, &er)
}

// TestWorkloadOpsAcrossRecompile pins what the registry's per-node slots do
// when a fingerprint's plan is compiled again. Evicted from a one-entry
// plan cache and recompiled to the same plan, the shape keeps accumulating
// in its slots; recompiled to a plan with other labels for the same node
// numbers — after a Swap to the bind-count heuristics, which join the three
// patterns in another order — the slots restart.
func TestWorkloadOpsAcrossRecompile(t *testing.T) {
	w, sys, _ := fixture(t)
	svc := newService(t, serve.Config{CacheSize: 1})
	ctx, system := context.Background(), sys[0].Name
	text := `SELECT * WHERE { ?s <` + datagen.TypeIRI + `> ?t . ?s <` + datagen.RecordsIRI + `> ?x . ?s <` + datagen.LanguageIRI + `> ?l }`
	other := queryTexts(t, 1)[0]
	run := func(text string, profile bool) *serve.Result {
		t.Helper()
		res, err := svc.ExecTextOpts(ctx, text, system, serve.ExecOpts{Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ops := func(want int64) []serve.WorkloadOp {
		t.Helper()
		for _, e := range svc.Workload(serve.WorkloadQuery{Limit: -1}).Entries {
			if e.Fingerprint != serve.Fingerprint(text) {
				continue
			}
			if len(e.Ops) == 0 {
				t.Fatal("no per-operator aggregates")
			}
			for _, op := range e.Ops {
				if op.Count != want {
					t.Fatalf("op %q folded %d executions, want %d", op.Op, op.Count, want)
				}
			}
			return e.Ops
		}
		t.Fatal("fingerprint missing from the registry")
		return nil
	}
	labels := func() []string {
		t.Helper()
		p, err := svc.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		return p.Compiled.Labels()
	}

	run(text, true)
	first := labels()
	run(other, false) // evicts text's plan
	if res := run(text, true); res.Cached {
		t.Fatal("the one-entry cache still held the plan")
	}
	if again := labels(); &again[0] == &first[0] || !slices.Equal(again, first) {
		t.Fatal("the recompiled plan should be another plan with the same labels")
	}
	ops(2)

	targets, err := bench.ServeTargets(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Swap(w.DS.Graph.Dict, nil, targets...); err != nil {
		t.Fatal(err)
	}
	run(text, true)
	reordered := labels()
	if slices.Equal(reordered, first) {
		t.Fatalf("the heuristics kept the join order %v", first)
	}
	got := ops(1)
	var names []string
	for _, op := range got {
		names = append(names, op.Op)
	}
	for _, name := range names {
		if !slices.Contains(reordered, name) {
			t.Fatalf("restarted slots %v do not come from the new plan %v", names, reordered)
		}
	}
}

// TestLabelsRenderOnce: eight goroutines make the first profiled, traced
// requests on one cached plan at once. The plan's labels are rendered once
// and shared — every goroutine reads the same slice — and every request's
// bridged operator spans carry them. Run under -race.
func TestLabelsRenderOnce(t *testing.T) {
	_, sys, _ := fixture(t)
	svc := newService(t, serve.Config{Tracer: trace.New(trace.Config{SampleRate: 1, Seed: 3})})
	text := queryTexts(t, 1)[0]
	p, err := svc.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	seen := make([][]string, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx, _, finish := svc.TraceStart(context.Background(), "query", "")
			res, err := svc.ExecTextOpts(ctx, text, sys[c%len(sys)].Name, serve.ExecOpts{Profile: true})
			finish(err)
			if err != nil {
				errs <- err
				return
			}
			seen[c] = p.Compiled.Labels()
			rec, ok := svc.Tracer().Get(res.TraceID)
			if !ok {
				errs <- fmt.Errorf("trace %s missing", res.TraceID)
				return
			}
			root := "op:" + seen[c][res.Profile.ID]
			if !slices.ContainsFunc(rec.Spans, func(sp trace.SpanData) bool { return sp.Name == root }) {
				errs <- fmt.Errorf("no %q span in the trace", root)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c, l := range seen {
		if len(l) == 0 || &l[0] != &seen[0][0] {
			t.Fatalf("goroutine %d read labels %p, goroutine 0 %p", c, l, seen[0])
		}
	}
}
