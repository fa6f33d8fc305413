package serve_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"blackswan/internal/bench"
	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/serve"
)

// The shared fixture: one small workload loaded into all four schemes,
// built once per test binary. Each test builds its own Service over the
// shared targets (services are cheap; loaded systems are not).
var (
	fixOnce sync.Once
	fixErr  error
	fixW    *bench.Workload
	fixSys  []*bench.System
	fixEst  *bgp.Estimator
)

func fixture(t *testing.T) (*bench.Workload, []*bench.System, *bgp.Estimator) {
	t.Helper()
	fixOnce.Do(func() {
		fixW, fixErr = bench.NewWorkload(datagen.Config{Triples: 4000, Properties: 24, Interesting: 8, Seed: 7})
		if fixErr != nil {
			return
		}
		fixSys, fixErr = bench.BGPSystems(fixW)
		if fixErr != nil {
			return
		}
		fixEst = fixW.Estimator()
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixW, fixSys, fixEst
}

// newService builds a Service over the fixture targets.
func newService(t *testing.T, cfg serve.Config) *serve.Service {
	t.Helper()
	w, sys, _ := fixture(t)
	svc, err := bench.NewService(w, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// queryTexts returns n distinct generated query texts from the fixture
// workload (the generator may repeat itself; the tests count compiles per
// distinct query).
func queryTexts(t *testing.T, n int) []string {
	t.Helper()
	w, _, _ := fixture(t)
	texts := bench.DistinctQueryTexts(w, 11, n)
	if len(texts) != n {
		t.Fatalf("generator yielded only %d of %d distinct queries", len(texts), n)
	}
	return texts
}

// TestCachedMatchesCold is the acceptance check in miniature: for every
// scheme, a cache-hit execution is byte-identical to a direct uncached
// execution of the same text, and the hit demonstrably skipped
// compilation (counter-verified).
func TestCachedMatchesCold(t *testing.T) {
	w, sys, est := fixture(t)
	svc := newService(t, serve.Config{})
	texts := queryTexts(t, 5)
	ctx := context.Background()
	for _, text := range texts {
		// The uncached baseline: compile and execute directly.
		compiled, err := bgp.CompileText(text, w.DS.Graph.Dict, est)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sys {
			src := s.DB.(core.PhysicalSource)
			want, _, _, err := core.ExecutePlan(src, compiled.Root, core.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			missesBefore := svc.Stats().Cache.Misses
			first, err := svc.ExecText(ctx, text, s.Name)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := svc.ExecText(ctx, text, s.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !hit.Cached {
				t.Fatalf("%s: repeat execution missed the cache", s.Name)
			}
			if got := svc.Stats().Cache.Misses; got > missesBefore+1 {
				t.Fatalf("%s: %d misses for two executions of one text", s.Name, got-missesBefore)
			}
			for _, res := range []*serve.Result{first, hit} {
				if res.Rows.W != want.W || len(res.Rows.Data) != len(want.Data) {
					t.Fatalf("%s: result shape differs from direct execution", s.Name)
				}
				for i := range want.Data {
					if res.Rows.Data[i] != want.Data[i] {
						t.Fatalf("%s: result not byte-identical to direct execution (cached=%v)", s.Name, res.Cached)
					}
				}
			}
		}
	}
}

// TestConcurrentMixedHitMiss hammers one Service from many goroutines with
// a mixed hit/miss workload across all four schemes (run under -race in
// CI): results must stay byte-identical to sequential references, no
// execution may fail, and the counters must add up.
func TestConcurrentMixedHitMiss(t *testing.T) {
	_, sys, _ := fixture(t)
	svc := newService(t, serve.Config{MaxConcurrent: 4})
	texts := queryTexts(t, 6)
	ctx := context.Background()

	// Sequential references per (text, system): execution is deterministic,
	// so concurrent results must match exactly.
	ref := make(map[string][]uint64)
	refSvc := newService(t, serve.Config{})
	for _, text := range texts {
		for _, s := range sys {
			res, err := refSvc.ExecText(ctx, text, s.Name)
			if err != nil {
				t.Fatal(err)
			}
			ref[text+"|"+s.Name] = res.Rows.Data
		}
	}

	const goroutines = 8
	const opsEach = 24
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				text := texts[(g+i)%len(texts)]
				s := sys[(g*opsEach+i)%len(sys)]
				res, err := svc.ExecText(ctx, text, s.Name)
				if err != nil {
					errs[g] = err
					return
				}
				want := ref[text+"|"+s.Name]
				if len(res.Rows.Data) != len(want) {
					errs[g] = errors.New("result size changed under concurrency")
					return
				}
				for j := range want {
					if res.Rows.Data[j] != want[j] {
						errs[g] = errors.New("result bytes changed under concurrency")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	total := int64(goroutines * opsEach)
	if st.Queries != total {
		t.Fatalf("served %d queries, want %d", st.Queries, total)
	}
	if st.Errors != 0 || st.Rejected != 0 {
		t.Fatalf("errors=%d rejected=%d, want 0", st.Errors, st.Rejected)
	}
	if got := st.Cache.Hits + st.Cache.Misses + st.Cache.Coalesced; got != total {
		t.Fatalf("hits+misses+coalesced = %d, want %d", got, total)
	}
	// Singleflight: concurrent first-touches coalesce onto one leader, so
	// each distinct text compiles exactly once — no double-compile even
	// under this hammer.
	if st.Cache.Misses != int64(len(texts)) {
		t.Fatalf("misses = %d, want exactly %d distinct compilations", st.Cache.Misses, len(texts))
	}
	if st.MaxInFlight > 4 {
		t.Fatalf("max in-flight %d exceeded the admission bound 4", st.MaxInFlight)
	}
	if st.MeanLatency <= 0 || st.P50 <= 0 {
		t.Fatalf("latency metrics not recorded: %+v", st)
	}
}

// gatedSource wraps a PhysicalSource so the test can hold an execution
// inside a scan (admission slot occupied) and release it on demand.
type gatedSource struct {
	core.PhysicalSource
	started chan struct{} // closed-ish signal: first scan arrived
	once    sync.Once
	gate    chan struct{} // scans proceed once closed
}

// StreamProp gates the per-property scan, the entry every execution uses.
func (g *gatedSource) StreamProp(p, s, o rdf.ID, need core.ScanCols, batchRows int) (core.RelIter, error) {
	g.once.Do(func() { close(g.started) })
	<-g.gate
	return g.PhysicalSource.StreamProp(p, s, o, need, batchRows)
}

// TestAdmissionAndCancellation drives the admission pool and both
// cancellation paths: a client abandoning the admission queue, a client
// cancelled mid-execution, and a pre-cancelled context.
func TestAdmissionAndCancellation(t *testing.T) {
	w, sys, est := fixture(t)
	// The vertically-partitioned scheme lowers an unbound property to one
	// StreamProp per property — plenty of gate crossings and ctx checks.
	var vert *bench.System
	for _, s := range sys {
		if s.Name == "DBX vert SO" {
			vert = s
		}
	}
	if vert == nil {
		t.Fatal("fixture lacks the DBX vert system")
	}
	gated := &gatedSource{
		PhysicalSource: vert.DB.(core.PhysicalSource),
		started:        make(chan struct{}),
		gate:           make(chan struct{}),
	}
	svc, err := serve.New(w.DS.Graph.Dict, est, serve.Config{MaxConcurrent: 1},
		serve.Target{Name: "gated", Src: gated})
	if err != nil {
		t.Fatal(err)
	}
	text := `SELECT * WHERE { ?s ?p ?o }`

	// Client 1 blocks inside its first scan, holding the only slot.
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() {
		_, err := svc.ExecText(ctx1, text, "gated")
		done1 <- err
	}()
	<-gated.started

	// Client 2 waits for admission and gives up.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, err := svc.ExecText(ctx2, text, "gated"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued client returned %v, want deadline exceeded", err)
	}

	// Client 1 is cancelled mid-execution; releasing the gate lets the
	// executor reach its next ctx check and abort.
	cancel1()
	close(gated.gate)
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-execution cancel returned %v, want context.Canceled", err)
	}

	// A pre-cancelled context rejects before admission.
	ctx3, cancel3 := context.WithCancel(context.Background())
	cancel3()
	if _, err := svc.ExecText(ctx3, text, "gated"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context returned %v, want context.Canceled", err)
	}

	st := svc.Stats()
	if st.MaxInFlight != 1 {
		t.Fatalf("max in-flight = %d, want 1 under MaxConcurrent=1", st.MaxInFlight)
	}
	if st.Rejected < 2 {
		t.Fatalf("rejected = %d, want >= 2", st.Rejected)
	}

	// The gate is open now: the service still serves.
	if _, err := svc.ExecText(context.Background(), text, "gated"); err != nil {
		t.Fatalf("service wedged after cancellations: %v", err)
	}
}

// TestUnknownSystem asserts the typed error for a bad target name.
func TestUnknownSystem(t *testing.T) {
	svc := newService(t, serve.Config{})
	texts := queryTexts(t, 1)
	var ue *serve.UnknownSystemError
	_, err := svc.ExecText(context.Background(), texts[0], "no-such-system")
	if !errors.As(err, &ue) {
		t.Fatalf("got %v, want *UnknownSystemError", err)
	}
	if len(ue.Known) != 4 {
		t.Fatalf("known systems = %v, want 4 entries", ue.Known)
	}
}

// TestCacheHitRunsHeldPlan: a cache hit hands exec the plan analysed when
// it was compiled, and ExecText runs it without a second analysis — the
// hit allocates less than its prepare, the held plan's execution and one
// analysis would together. Observation reads the plan's node table: a
// profiled hit with the workload registry on costs at most
// maxProfiledHitAllocs more than a plain one (q6, 11 nodes), where per-
// execution node maps, estimate walks and label renders once cost 97, and
// the held execution stays within heldExecAllocs (plus raceAllocs).
func TestCacheHitRunsHeldPlan(t *testing.T) {
	const heldExecAllocs, maxProfiledHitAllocs = 157 + raceAllocs, 24
	w, _, _ := fixture(t)
	svc := newService(t, serve.Config{})
	text, err := bgp.PaperText(core.Query{ID: core.Q6}, w.DS.Graph.Dict, w.Cat.Consts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, system := context.Background(), svc.DefaultSystem()
	first, err := svc.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	again, err := svc.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	if again.Compiled.Plan != first.Compiled.Plan {
		t.Fatal("a cache hit returned another plan")
	}
	var src core.PhysicalSource
	for _, tg := range svc.Targets() {
		if tg.Name == system {
			src = tg.Src
		}
	}
	hit := testing.AllocsPerRun(20, func() {
		if res, err := svc.ExecText(ctx, text, system); err != nil || !res.Cached {
			t.Fatalf("cache-hit ExecText: %v", err)
		}
	})
	profiled := testing.AllocsPerRun(20, func() {
		if res, err := svc.ExecTextOpts(ctx, text, system, serve.ExecOpts{Profile: true}); err != nil || !res.Cached || res.Profile == nil {
			t.Fatalf("profiled cache-hit ExecTextOpts: %v", err)
		}
	})
	prepare := testing.AllocsPerRun(20, func() { svc.Prepare(text) })
	held := testing.AllocsPerRun(20, func() { first.Compiled.Execute(ctx, src, core.ExecOptions{Streaming: true}) })
	analysis := testing.AllocsPerRun(20, func() { core.NewPlan(first.Compiled.Root, nil) })
	t.Logf("allocations a run: hit %.0f, profiled hit %.0f, prepare %.0f, held execution %.0f, analysis %.0f",
		hit, profiled, prepare, held, analysis)
	if hit >= prepare+held+analysis {
		t.Errorf("a cache hit allocates %.0f objects, at least its prepare (%.0f), execution (%.0f) and an analysis (%.0f)",
			hit, prepare, held, analysis)
	}
	if held > heldExecAllocs {
		t.Errorf("the held execution allocates %.0f objects, more than %d", held, heldExecAllocs)
	}
	if d := profiled - hit; d > maxProfiledHitAllocs {
		t.Errorf("profiling a hit costs %.0f allocations (%.0f against %.0f), more than %d", d, profiled, hit, maxProfiledHitAllocs)
	}
}
