package core

import (
	"context"
	"fmt"
	"os"
	"testing"

	"blackswan/internal/datagen"
	"blackswan/internal/rowstore"
	"blackswan/internal/simio"
)

// This file tests the streaming executor against its contract: results are
// byte-identical to the materializing executor on every scheme (including
// row order), early termination reaches the physical scans, the bounded
// heap charges n·ceil(log2 k) comparisons, and per-query peak memory stays
// bounded by batches plus operator state rather than whole intermediates.

// TestMain switches the recycled-buffer poison on for the whole package (a
// race build has it on everywhere): every operator and cursor overwrites its
// buffer with poisonWord before refilling it, so a consumer that retains a
// batch past its iterator's next next()/close() breaks the byte-identity
// corpora here instead of passing on rows that happen to be still intact.
func TestMain(m *testing.M) {
	poisonRecycled = true
	os.Exit(m.Run())
}

// streamVariants are the option sets a result-identity test runs beyond the
// materializing baseline: plain streaming, a deliberately awkward batch
// size (exercises batch-boundary logic), and the worker-pool fan-out.
var streamVariants = []ExecOptions{
	{Streaming: true},
	{Streaming: true, BatchRows: 7},
	{Streaming: true, Workers: 3},
}

// TestStreamingByteIdenticalPaperQueries runs the twelve benchmark queries
// on every engine × scheme × clustering combination, comparing the
// streaming executor's raw output — width, row order, bytes — against the
// materializing executor's.
func TestStreamingByteIdenticalPaperQueries(t *testing.T) {
	type fixture struct {
		name string
		dbs  []Database
	}
	var fixtures []fixture
	cf := newCrafted(t)
	fixtures = append(fixtures, fixture{"crafted", allDatabases(t, cf.g, cf.cat)})
	for _, seed := range []int64{100, 101} {
		g, cat := randomFixture(t, seed)
		fixtures = append(fixtures, fixture{fmt.Sprintf("random-%d", seed), allDatabases(t, g, cat)})
	}
	for _, fx := range fixtures {
		for _, db := range fx.dbs {
			src := db.(PhysicalSource)
			for _, q := range BenchmarkQueries() {
				want, wtr, err := ExecuteTraced(src, q, ExecOptions{})
				if err != nil {
					t.Fatalf("%s %s %v: materializing: %v", fx.name, db.Label(), q, err)
				}
				if wtr.Streamed {
					t.Fatalf("%s %s %v: materializing trace claims Streamed", fx.name, db.Label(), q)
				}
				for _, opt := range streamVariants {
					got, gtr, err := ExecuteTraced(src, q, opt)
					if err != nil {
						t.Fatalf("%s %s %v %+v: %v", fx.name, db.Label(), q, opt, err)
					}
					if !gtr.Streamed {
						t.Fatalf("%s %s %v %+v: trace not marked Streamed", fx.name, db.Label(), q, opt)
					}
					if got.W != want.W || fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
						t.Fatalf("%s %s %v %+v: streaming result differs\n got  %d rows %v\n want %d rows %v",
							fx.name, db.Label(), q, opt, got.Len(), got.Data, want.Len(), want.Data)
					}
				}
			}
		}
	}
}

// streamGen builds a generated data set large enough that early termination
// and memory bounds are measurable, loaded into all schemes.
func streamGen(t *testing.T) (*datagen.Dataset, Catalog, []Database) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Triples: 20_000, Properties: 40, Interesting: 28, Seed: 7,
	})
	if err != nil {
		t.Fatalf("datagen: %v", err)
	}
	cat := generatedCatalog(t, ds)
	return ds, cat, allDatabases(t, ds.Graph, cat)
}

// TestStreamingEarlyTermination asserts a LIMIT-n plan pulls O(n) rows'
// worth of scan batches instead of draining the source: the close signal
// propagates from Limit through the pipeline into the physical scan.
func TestStreamingEarlyTermination(t *testing.T) {
	ds, _, dbs := streamGen(t)
	access := &Access{Pattern: Pat(V("s"), C(ds.Vocab.Type), V("o"))}
	limited := &Limit{In: access, N: 5}
	const batch = 16
	for _, db := range dbs {
		src := db.(PhysicalSource)
		full, _, ftr, err := ExecutePlan(src, access, ExecOptions{Streaming: true, BatchRows: batch})
		if err != nil {
			t.Fatalf("%s: full scan: %v", db.Label(), err)
		}
		if full.Len() <= 10*5 {
			t.Fatalf("%s: fixture too small for the property (%d type rows)", db.Label(), full.Len())
		}
		lim, _, ltr, err := ExecutePlan(src, limited, ExecOptions{Streaming: true, BatchRows: batch})
		if err != nil {
			t.Fatalf("%s: limited scan: %v", db.Label(), err)
		}
		if lim.Len() != 5 {
			t.Fatalf("%s: LIMIT 5 returned %d rows", db.Label(), lim.Len())
		}
		if fmt.Sprint(lim.Data) != fmt.Sprint(full.Data[:5*full.W]) {
			t.Fatalf("%s: LIMIT prefix differs from the full scan's first rows", db.Label())
		}
		// O(n) batches, not O(input): the SPO-clustered triple stores scan
		// the whole table with a residual filter (the paper's structural
		// point against that clustering), so their batches carry only a few
		// matching rows — still a constant number of batches for five rows,
		// against ~1250 for the full drain.
		if ltr.SourceBatches*50 >= ftr.SourceBatches {
			t.Errorf("%s: LIMIT 5 pulled %d source batches, full scan %d — no early termination",
				db.Label(), ltr.SourceBatches, ftr.SourceBatches)
		}
		// The vertical schemes deliver only matching rows, so five rows is
		// exactly one batch.
		switch db.(type) {
		case *RowVert, *ColVert:
			if ltr.SourceBatches != 1 {
				t.Errorf("%s: LIMIT 5 with batch %d pulled %d source batches, want 1",
					db.Label(), batch, ltr.SourceBatches)
			}
		}
	}
}

// TestStreamingTopNHeapCompares pins the bounded-heap cost model: a TopN
// with limit k over n input rows charges n·ceil(log2 k) comparisons and is
// marked Heap in the trace, while the materializing executor's full sort
// charges n·ceil(log2 n).
func TestStreamingTopNHeapCompares(t *testing.T) {
	cf := newCrafted(t)
	ord := DictValues{Dict: cf.g.Dict}
	access := &Access{Pattern: Pat(V("s"), C(cf.cat.Consts.Type), V("o"))}
	for _, db := range allDatabases(t, cf.g, cf.cat) {
		src := db.(PhysicalSource)
		for _, k := range []int{1, 2, 3} {
			topn := &TopN{In: access, Keys: []SortKey{{Col: "o"}, {Col: "s"}}, Limit: k, Ord: ord}
			want, _, mtr, err := ExecutePlan(src, topn, ExecOptions{})
			if err != nil {
				t.Fatalf("%s: materializing TopN: %v", db.Label(), err)
			}
			got, _, str, err := ExecutePlan(src, topn, ExecOptions{Streaming: true, BatchRows: 3})
			if err != nil {
				t.Fatalf("%s: streaming TopN: %v", db.Label(), err)
			}
			if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
				t.Fatalf("%s: TopN limit %d: streaming %v, materializing %v", db.Label(), k, got.Data, want.Data)
			}
			if len(mtr.TopNs) != 1 || len(str.TopNs) != 1 {
				t.Fatalf("%s: TopN stats: materializing %d, streaming %d", db.Label(), len(mtr.TopNs), len(str.TopNs))
			}
			m, s := mtr.TopNs[0], str.TopNs[0]
			if m.Heap {
				t.Errorf("%s: materializing TopN marked Heap", db.Label())
			}
			if !s.Heap {
				t.Errorf("%s: streaming TopN limit %d not marked Heap", db.Label(), k)
			}
			if s.Input != m.Input {
				t.Errorf("%s: TopN input rows: streaming %d, materializing %d", db.Label(), s.Input, m.Input)
			}
			n := int64(s.Input)
			if wantCmp := n * ceilLog2(k); s.Compares != wantCmp {
				t.Errorf("%s: heap TopN(n=%d, k=%d) charged %d compares, want n·ceil(log2 k) = %d",
					db.Label(), n, k, s.Compares, wantCmp)
			}
			if wantCmp := sortCompares(s.Input); m.Compares != wantCmp {
				t.Errorf("%s: full-sort TopN(n=%d) charged %d compares, want %d",
					db.Label(), n, m.Compares, wantCmp)
			}
		}
		// Plain ORDER BY (limit < 0) cannot bound its heap: the streaming
		// executor falls back to a full sort and says so in the trace.
		all := &TopN{In: access, Keys: []SortKey{{Col: "o"}, {Col: "s"}}, Limit: -1, Ord: ord}
		_, _, str, err := ExecutePlan(src, all, ExecOptions{Streaming: true})
		if err != nil {
			t.Fatalf("%s: streaming ORDER BY: %v", db.Label(), err)
		}
		if len(str.TopNs) != 1 || str.TopNs[0].Heap {
			t.Errorf("%s: unbounded ORDER BY should not use the heap: %+v", db.Label(), str.TopNs)
		}
	}
}

// TestStreamingPeakMemoryBounded asserts the headline memory claim: a
// LIMIT-10 plan's tracked peak bytes under the streaming executor are at
// least 10× below the materializing executor's, which holds every
// intermediate live.
func TestStreamingPeakMemoryBounded(t *testing.T) {
	_, _, dbs := streamGen(t)
	plan := &Limit{In: &Access{Pattern: Pat(V("s"), V("p"), V("o"))}, N: 10}
	for _, db := range dbs {
		src := db.(PhysicalSource)
		want, _, mtr, err := ExecutePlan(src, plan, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: materializing: %v", db.Label(), err)
		}
		got, _, str, err := ExecutePlan(src, plan, ExecOptions{Streaming: true, BatchRows: 64})
		if err != nil {
			t.Fatalf("%s: streaming: %v", db.Label(), err)
		}
		if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
			t.Fatalf("%s: LIMIT 10 results differ between modes", db.Label())
		}
		if str.PeakBytes <= 0 || mtr.PeakBytes <= 0 {
			t.Fatalf("%s: missing peak-memory accounting: streaming %d, materializing %d",
				db.Label(), str.PeakBytes, mtr.PeakBytes)
		}
		if str.PeakBytes*10 > mtr.PeakBytes {
			t.Errorf("%s: streaming peak %d bytes, materializing %d — want ≥10× reduction",
				db.Label(), str.PeakBytes, mtr.PeakBytes)
		}
	}
}

// TestStreamingWorkerChargeDeterminism pins satellite (2): with the worker
// pool on and the clock in overlapped mode, a fully drained streaming query
// charges the same simulated CPU and I/O on every run, regardless of how
// the fan-out's goroutines interleave.
func TestStreamingWorkerChargeDeterminism(t *testing.T) {
	ds, cat, _ := streamGen(t)
	store := simio.NewStore(simio.Config{Machine: simio.MachineB(), PoolBytes: 1 << 30})
	db, err := LoadRowVert(rowstore.NewEngine(store), ds.Graph, cat)
	if err != nil {
		t.Fatalf("LoadRowVert: %v", err)
	}
	store.Clock().SetOverlapped(true)
	opt := ExecOptions{Streaming: true, Workers: 4}
	q := Query{ID: Q2} // unbound-property fan-out over every table
	run := func() (user, io int64) {
		u0, i0 := store.Clock().User(), store.Clock().IO()
		if _, err := ExecuteOpts(db, q, opt); err != nil {
			t.Fatalf("q2: %v", err)
		}
		return int64(store.Clock().User() - u0), int64(store.Clock().IO() - i0)
	}
	run() // warm the buffer pool so repeated runs are hot and comparable
	u1, io1 := run()
	for i := 0; i < 3; i++ {
		u, io := run()
		if u != u1 || io != io1 {
			t.Fatalf("run %d charged (cpu %d, io %d), first hot run (cpu %d, io %d) — nondeterministic worker accounting",
				i+2, u, io, u1, io1)
		}
	}
	if !store.Clock().Overlapped() {
		t.Fatal("clock lost its overlapped mode")
	}
}

// TestStreamingContextCancel asserts a cancelled context aborts a streaming
// plan at a batch boundary with ctx.Err.
func TestStreamingContextCancel(t *testing.T) {
	cf := newCrafted(t)
	dbs := allDatabases(t, cf.g, cf.cat)
	src := dbs[0].(PhysicalSource)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := PlanFor(Query{ID: Q2}, cf.cat.Consts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ExecutePlanCtx(ctx, src, p.Root, ExecOptions{Streaming: true}); err == nil {
		t.Fatal("cancelled streaming plan returned no error")
	} else if ctx.Err() == nil || err.Error() == "" {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestStreamingAllocsDoNotScaleWithBatches pins what batch recycling buys:
// the executor allocates per query, not per batch. On every scheme, q1, q2,
// q5 and q8 at BatchRows 64 pull sixteen times the batches they pull at 1024
// yet may allocate at most four more objects per plan operator (a hash join's
// batch-boundary list grows with the batches it buffers; nothing else does).
func TestStreamingAllocsDoNotScaleWithBatches(t *testing.T) {
	_, cat, dbs := streamGen(t)
	for _, db := range dbs {
		src := db.(PhysicalSource)
		for _, id := range []QueryID{Q1, Q2, Q5, Q8} {
			p, err := PlanFor(Query{ID: id}, cat.Consts)
			if err != nil {
				t.Fatal(err)
			}
			ops := 0
			WalkPlan(p.Root, func(Node) { ops++ })
			var allocs [2]float64
			var batches [2]int
			for i, rows := range []int{64, 1024} {
				opt := ExecOptions{Streaming: true, BatchRows: rows}
				_, _, tr, err := ExecutePlan(src, p.Root, opt)
				if err != nil {
					t.Fatalf("%s q%d: %v", db.Label(), id, err)
				}
				batches[i] = tr.SourceBatches
				allocs[i] = testing.AllocsPerRun(3, func() { ExecutePlan(src, p.Root, opt) })
			}
			if batches[0] < 4*batches[1] {
				t.Fatalf("%s q%d: %d source batches at 64 rows, %d at 1024 — fixture too small to tell",
					db.Label(), id, batches[0], batches[1])
			}
			if allocs[0] > allocs[1]+float64(4*ops) {
				t.Errorf("%s q%d: %v allocations over %d batches, %v over %d, %d operators — allocation scales with batch count",
					db.Label(), id, allocs[0], batches[0], allocs[1], batches[1], ops)
			}
		}
	}
}

// TestStreamingPointLookupAllocs guards the other side of recycling: buffers
// grow to the rows produced, never to BatchRows, so a subject-bound
// SELECT ?o WHERE { <s> <p> ?o } allocates no more objects per execution
// than it did before any buffer was kept (the counts below, per scheme).
func TestStreamingPointLookupAllocs(t *testing.T) {
	before := map[string]float64{
		"DBX/triple-SPO": 60, "DBX/triple-PSO": 60, "DBX/vert-SO": 57,
		"MonetDB/triple-SPO": 80, "MonetDB/triple-PSO": 61, "MonetDB/vert-SO": 57,
	}
	ds, _, dbs := streamGen(t)
	first := ds.Graph.Triples[0]
	plan := &Project{In: &Access{Pattern: Pat(C(first.S), C(first.P), V("o"))}, Cols: []string{"o"}}
	for _, db := range dbs {
		src := db.(PhysicalSource)
		out, _, _, err := ExecutePlan(src, plan, ExecOptions{Streaming: true})
		if err != nil || out.Len() == 0 {
			t.Fatalf("%s: lookup returned %v, %v", db.Label(), out, err)
		}
		max, ok := before[db.Label()]
		if !ok {
			t.Fatalf("no pinned allocation count for %s", db.Label())
		}
		got := testing.AllocsPerRun(20, func() { ExecutePlan(src, plan, ExecOptions{Streaming: true}) })
		t.Logf("%s: %v allocations, %v before", db.Label(), got, max)
		if got > max {
			t.Errorf("%s: a subject-bound lookup allocates %v objects, %v before batch recycling", db.Label(), got, max)
		}
	}
}
