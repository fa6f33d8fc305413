package core

import (
	"context"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"blackswan/internal/colstore"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
	"blackswan/internal/simio"
)

// This file tests the executor against its contract: results are
// byte-identical in every configuration on every scheme (including row
// order), the simulated CPU clock does not depend on the batch size, early
// termination reaches the physical scans, the bounded heap charges
// n·ceil(log2 k) comparisons, and pipelined per-query peak memory stays
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

// configs is every executor configuration a result-identity test runs: the
// drain configuration, then the pipelined one at batch sizes that put a
// batch boundary inside every operator (1, 2, 5) and inside none (1024).
var configs = []ExecOptions{
	{},
	{Streaming: true, BatchRows: 1},
	{Streaming: true, BatchRows: 2},
	{Streaming: true, BatchRows: 5},
	{Streaming: true, BatchRows: 1024},
}

// TestStreamingByteIdenticalPaperQueries runs the twelve benchmark queries
// on every engine × scheme × clustering combination in every configuration.
// On the crafted graph each result must be the hand-computed answer of
// core_test.go; everywhere, each configuration's raw output — width, row
// order, bytes — must be the drain configuration's.
func TestStreamingByteIdenticalPaperQueries(t *testing.T) {
	type fixture struct {
		name   string
		dbs    []Database
		expect map[string]*rel.Rel
	}
	var fixtures []fixture
	cf := newCrafted(t)
	fixtures = append(fixtures, fixture{"crafted", allDatabases(t, cf.g, cf.cat), cf.expect})
	for _, seed := range []int64{100, 101} {
		g, cat := randomFixture(t, seed)
		fixtures = append(fixtures, fixture{fmt.Sprintf("random-%d", seed), allDatabases(t, g, cat), nil})
	}
	for _, fx := range fixtures {
		for _, db := range fx.dbs {
			src := db.(PhysicalSource)
			for _, q := range BenchmarkQueries() {
				var first *rel.Rel
				for _, opt := range configs {
					got, _, err := runTraced(src, q, opt)
					if err != nil {
						t.Fatalf("%s %s %v %+v: %v", fx.name, db.Label(), q, opt, err)
					}
					if want := fx.expect[q.String()]; want != nil && !rel.Equal(got, want) {
						t.Fatalf("%s %s %v %+v:\n got  %v\n want %v", fx.name, db.Label(), q, opt, got, want)
					}
					if first == nil {
						first = got
					}
					if got.W != first.W || !slices.Equal(got.Data, first.Data) {
						t.Fatalf("%s %s %v %+v: result differs from the drain configuration's\n got  %d rows %v\n want %d rows %v",
							fx.name, db.Label(), q, opt, got.Len(), got.Data, first.Len(), first.Data)
					}
				}
			}
		}
	}
}

// TestClockIndependentOfBatchSize pins what the simulated CPU clock
// guarantees: user time depends on the work charged, not on how batches
// split it. On the two triple-store schemes — hash joins only, so every
// batch size does the same work — the twelve paper queries charge identical
// user nanoseconds at 1, 7 and 1024 rows a batch. (The vertical schemes are
// excluded because a merge join charges the batch it pulled past the end of
// its shorter input, and I/O because read-ahead windows depend on the pull
// size: both are strategy, not rounding.)
func TestClockIndependentOfBatchSize(t *testing.T) {
	ds, cat, _ := streamGen(t)
	type sys struct {
		store *simio.Store
		db    Database
	}
	var systems []sys
	{
		store := newStore()
		db, err := LoadRowTriple(rowstore.NewEngine(store), ds.Graph, cat, rdf.PSO, rdf.AllOrders())
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys{store, db})
	}
	{
		store := newStore()
		db, err := LoadColTriple(colstore.NewEngine(store), ds.Graph, cat, rdf.PSO)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys{store, db})
	}
	for _, s := range systems {
		for _, q := range BenchmarkQueries() {
			var first time.Duration
			for _, rows := range []int{1, 7, 1024} {
				s.store.Clock().Reset()
				if _, _, err := runTraced(s.db.(PhysicalSource), q, ExecOptions{Streaming: true, BatchRows: rows}); err != nil {
					t.Fatalf("%s %v: %v", s.db.Label(), q, err)
				}
				user := s.store.Clock().User()
				if user == 0 {
					t.Fatalf("%s %v: no CPU charged", s.db.Label(), q)
				}
				if rows == 1 {
					first = user
				} else if user != first {
					t.Errorf("%s %v: %d-row batches charge %d user ns, 1-row batches %d",
						s.db.Label(), q, rows, user, first)
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

// TestStreamingTopNHeapCompares pins the one TopN rule, in every
// configuration: a limit k ≥ 0 over n input rows runs the bounded heap,
// charges n·ceil(log2 k) comparisons and is marked Heap in the trace; plain
// ORDER BY (a negative limit) cannot bound its heap, sorts in full at
// n·ceil(log2 n) and is not. The rows are the first k of the full sort.
func TestStreamingTopNHeapCompares(t *testing.T) {
	cf := newCrafted(t)
	ord := DictValues{Dict: cf.g.Dict}
	access := &Access{Pattern: Pat(V("s"), C(cf.cat.Consts.Type), V("o"))}
	keys := []SortKey{{Col: "o"}, {Col: "s"}}
	for _, db := range allDatabases(t, cf.g, cf.cat) {
		src := db.(PhysicalSource)
		for _, opt := range configs {
			sorted, _, tr, err := ExecutePlan(src, &TopN{In: access, Keys: keys, Limit: -1, Ord: ord}, opt)
			if err != nil {
				t.Fatalf("%s %+v: ORDER BY: %v", db.Label(), opt, err)
			}
			n := sorted.Len()
			if len(tr.TopNs) != 1 || tr.TopNs[0].Heap || tr.TopNs[0].Input != n || tr.TopNs[0].Compares != sortCompares(n) {
				t.Errorf("%s %+v: ORDER BY over %d rows should sort in full at %d compares: %+v",
					db.Label(), opt, n, sortCompares(n), tr.TopNs)
			}
			for _, k := range []int{0, 1, 2, 3} {
				got, _, tr, err := ExecutePlan(src, &TopN{In: access, Keys: keys, Limit: k, Ord: ord}, opt)
				if err != nil {
					t.Fatalf("%s %+v: TopN limit %d: %v", db.Label(), opt, k, err)
				}
				if want := sorted.Data[:min(k, n)*sorted.W]; !slices.Equal(got.Data, want) {
					t.Fatalf("%s %+v: TopN limit %d: %v, full sort's prefix %v", db.Label(), opt, k, got.Data, want)
				}
				if len(tr.TopNs) != 1 || !tr.TopNs[0].Heap {
					t.Fatalf("%s %+v: TopN limit %d not marked Heap: %+v", db.Label(), opt, k, tr.TopNs)
				}
				// LIMIT 0 closes its input unread.
				wantIn := n
				if k == 0 {
					wantIn = 0
				}
				s := tr.TopNs[0]
				if s.Input != wantIn || s.Compares != int64(wantIn)*ceilLog2(k) {
					t.Errorf("%s %+v: heap TopN(n=%d, k=%d) saw %d rows and charged %d compares, want %d and n·ceil(log2 k) = %d",
						db.Label(), opt, n, k, s.Input, s.Compares, wantIn, int64(wantIn)*ceilLog2(k))
				}
			}
		}
	}
}

// TestStreamingPeakMemoryBounded asserts the headline memory claim: a
// LIMIT-10 plan's tracked peak bytes in the pipelined configuration are at
// least 10× below the drain configuration's, whose scan hands on the whole
// table in one batch.
func TestStreamingPeakMemoryBounded(t *testing.T) {
	_, _, dbs := streamGen(t)
	plan := &Limit{In: &Access{Pattern: Pat(V("s"), V("p"), V("o"))}, N: 10}
	for _, db := range dbs {
		src := db.(PhysicalSource)
		want, _, mtr, err := ExecutePlan(src, plan, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: drained: %v", db.Label(), err)
		}
		got, _, str, err := ExecutePlan(src, plan, ExecOptions{Streaming: true, BatchRows: 64})
		if err != nil {
			t.Fatalf("%s: pipelined: %v", db.Label(), err)
		}
		if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
			t.Fatalf("%s: LIMIT 10 results differ between configurations", db.Label())
		}
		if str.PeakBytes <= 0 || mtr.PeakBytes <= 0 {
			t.Fatalf("%s: missing peak-memory accounting: pipelined %d, drained %d",
				db.Label(), str.PeakBytes, mtr.PeakBytes)
		}
		if str.PeakBytes*10 > mtr.PeakBytes {
			t.Errorf("%s: pipelined peak %d bytes, drained %d — want ≥10× reduction",
				db.Label(), str.PeakBytes, mtr.PeakBytes)
		}
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
// yet may allocate at most four more objects per plan operator.
func TestStreamingAllocsDoNotScaleWithBatches(t *testing.T) {
	_, cat, dbs := streamGen(t)
	for _, db := range dbs {
		src := db.(PhysicalSource)
		for _, id := range []QueryID{Q1, Q2, Q5, Q8} {
			p, err := PlanFor(Query{ID: id}, cat.Consts)
			if err != nil {
				t.Fatal(err)
			}
			ops := len(p.nodes)
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
