package colstore

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

func newEngine() *Engine {
	store := simio.NewStore(simio.Config{Machine: simio.MachineB(), PoolBytes: 1 << 30, PageSize: 4096})
	return NewEngine(store)
}

// sortedPairs returns a 2-column relation sorted on column 0.
func sortedPairs(n int, seed int64) *rel.Rel {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(50) + 1)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	r := rel.NewCap(2, n)
	for i := 0; i < n; i++ {
		r.Append(keys[i], uint64(rng.Intn(1000)))
	}
	return r
}

func TestCreateTable(t *testing.T) {
	e := newEngine()
	rows := sortedPairs(1000, 1)
	tb, err := e.CreateTable("prop", rows, true)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if tb.Rows() != 1000 || len(tb.Cols) != 2 {
		t.Fatalf("table shape: %d rows, %d cols", tb.Rows(), len(tb.Cols))
	}
	if !tb.Cols[0].Sorted {
		t.Fatal("leading sorted column not detected")
	}
	if tb.Cols[1].Sorted {
		t.Fatal("unsorted column marked sorted")
	}
	if _, err := e.CreateTable("prop", rows, true); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := e.Table("missing"); err == nil {
		t.Fatal("missing table found")
	}
	if !e.HasTable("prop") || e.Tables() != 1 {
		t.Fatal("catalog wrong")
	}
}

func TestSortedColumnCompresses(t *testing.T) {
	e := newEngine()
	// Long runs: a property column of a PSO-sorted triples table.
	vals := make([]uint64, 100_000)
	for i := range vals {
		vals[i] = uint64(i / 10_000)
	}
	r := rel.NewCap(1, len(vals))
	for _, v := range vals {
		r.Append(v)
	}
	tb, err := e.CreateTable("p", r, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Cols[0].DiskBytes(); got >= int64(len(vals))*8/100 {
		t.Fatalf("RLE footprint %d, want < 1%% of %d", got, len(vals)*8)
	}
	// Without compression the footprint is plain.
	e2 := newEngine()
	tb2, err := e2.CreateTable("p", r, false)
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Cols[0].DiskBytes() != int64(len(vals))*8 {
		t.Fatalf("uncompressed footprint %d", tb2.Cols[0].DiskBytes())
	}
}

// drain collects a scan of positions [lo, hi) under conds, fetching cols,
// pulled batch rows at a time.
func drain(e *Engine, lo, hi int, conds []EqCond, cols []*Column, batch int) *rel.Rel {
	out := make([]StreamCol, len(cols))
	for i, c := range cols {
		out[i] = StreamCol{C: c}
	}
	s := e.NewColScan(lo, hi, conds, out, batch)
	r := rel.New(len(cols))
	var b rel.Rel
	for s.Next(&b) {
		r.Data = append(r.Data, b.Data...)
	}
	return r
}

// selectEq is the equality selection on one column as the schemes open it:
// a sorted column binary-searches to its run, an unsorted one tests every
// position.
func selectEq(e *Engine, tb *Table, ci int, v uint64, fetch ...*Column) *rel.Rel {
	c := tb.Cols[ci]
	lo, hi := 0, tb.Rows()
	if c.Sorted {
		lo, hi = e.SelectRange(c, v)
	}
	return drain(e, lo, hi, []EqCond{{C: c, V: v}}, fetch, math.MaxInt)
}

func TestSelectEqSorted(t *testing.T) {
	e := newEngine()
	rows := sortedPairs(5000, 2)
	tb, _ := e.CreateTable("t", rows, true)
	got := selectEq(e, tb, 0, 25, tb.Cols...)
	want := rel.New(2)
	for i := 0; i < rows.Len(); i++ {
		if rows.Row(i)[0] == 25 {
			want.Data = append(want.Data, rows.Row(i)...)
		}
	}
	if want.Len() == 0 || !slices.Equal(got.Data, want.Data) {
		t.Fatalf("sorted select found %d rows, want %d in table order", got.Len(), want.Len())
	}
}

func TestSelectEqUnsortedMatchesSorted(t *testing.T) {
	e := newEngine()
	rows := sortedPairs(5000, 3)
	tb, _ := e.CreateTable("t", rows, true)
	sorted := selectEq(e, tb, 0, 30, tb.Cols...)
	// The same values loaded unsorted (shuffled) must select the same rows.
	shuf := rel.NewCap(2, rows.Len())
	perm := rand.New(rand.NewSource(4)).Perm(rows.Len())
	for _, i := range perm {
		shuf.Append(rows.Row(i)[0], rows.Row(i)[1])
	}
	tb2, _ := e.CreateTable("u", shuf, true)
	if tb2.Cols[0].Sorted {
		t.Fatal("shuffled column marked sorted")
	}
	if unsorted := selectEq(e, tb2, 0, 30, tb2.Cols...); sorted.Len() == 0 || !rel.Equal(sorted, unsorted) {
		t.Fatalf("sorted %d rows vs unsorted %d", sorted.Len(), unsorted.Len())
	}
}

func TestSelectSortedReadsLessIO(t *testing.T) {
	e := newEngine()
	rows := sortedPairs(200_000, 5)
	tb, _ := e.CreateTable("t", rows, false) // uncompressed to compare bytes
	e.Store.DropCaches()
	e.Store.ResetStats()
	selectEq(e, tb, 0, 25, tb.Cols[0]) // sorted: range only
	sortedBytes := e.Store.Stats().BytesRead
	e.Store.DropCaches()
	e.Store.ResetStats()
	selectEq(e, tb, 1, 25, tb.Cols[1]) // unsorted: full column
	fullBytes := e.Store.Stats().BytesRead
	if sortedBytes*5 > fullBytes {
		t.Fatalf("sorted select read %d, full %d — want big advantage", sortedBytes, fullBytes)
	}
}

func TestRLEColumnReadsLessIO(t *testing.T) {
	// The sorted leading column of a clustered table is stored run-length
	// compressed, so selecting its whole run costs a sliver of the I/O of the
	// same positions on an uncompressed column.
	e := newEngine()
	r := rel.NewCap(2, 100_000)
	for i := 0; i < 100_000; i++ {
		r.Append(uint64(i/10_000), uint64(i/10_000))
	}
	tb, _ := e.CreateTable("t", r, true)
	lo, hi := e.SelectRange(tb.Cols[0], 4)
	read := func(c *Column) int64 {
		e.Store.DropCaches()
		e.Store.ResetStats()
		drain(e, lo, hi, []EqCond{{C: c, V: 4}}, []*Column{c}, math.MaxInt)
		return e.Store.Stats().BytesRead
	}
	if rle, plain := read(tb.Cols[0]), read(tb.Cols[1]); rle*10 > plain {
		t.Fatalf("RLE run read %d bytes, plain %d", rle, plain)
	}
}

func TestSelectAtVariants(t *testing.T) {
	// A further condition refines the candidates the ones before it kept.
	e := newEngine()
	r := rel.New(3)
	for i, v := range []uint64{10, 20, 10, 30, 10} {
		r.Append(7, v, uint64(i))
	}
	tb, _ := e.CreateTable("t", r, true)
	all, val, id := tb.Cols[0], tb.Cols[1], tb.Cols[2:]
	refine := func(lo, hi int, first uint64) []uint64 {
		return drain(e, lo, hi, []EqCond{{C: all, V: first}, {C: val, V: 10}}, id, math.MaxInt).Data
	}
	if got := refine(0, 5, 7); !slices.Equal(got, []uint64{0, 2, 4}) {
		t.Fatalf("refinement kept %v", got)
	}
	// Subset of candidates only.
	if got := refine(0, 2, 7); !slices.Equal(got, []uint64{0}) {
		t.Fatalf("subset candidates: %v", got)
	}
	// No candidate survives the first condition: the second is never tested,
	// so its column is never read.
	e.Store.ResetStats()
	if got := refine(0, 5, 8); len(got) != 0 {
		t.Fatalf("empty candidates: %v", got)
	}
	if n := e.Store.Stats().Requests; n != 1 {
		t.Fatalf("empty candidates issued %d requests, want the first condition's one", n)
	}
}

func TestFetch(t *testing.T) {
	e := newEngine()
	r := rel.New(3)
	for i := 0; i < 100; i++ {
		var pick uint64
		if i == 3 || i == 50 || i == 99 {
			pick = 1
		}
		r.Append(uint64(i), uint64(i*7), pick)
	}
	tb, _ := e.CreateTable("t", r, true)
	// Values are fetched at the surviving positions only.
	vals := selectEq(e, tb, 2, 1, tb.Cols[1]).Data
	if !slices.Equal(vals, []uint64{21, 350, 693}) {
		t.Fatalf("fetched %v", vals)
	}
	// Without conditions the range itself is fetched.
	all := drain(e, 0, tb.Rows(), nil, tb.Cols[:1], math.MaxInt).Data
	if len(all) != 100 || all[42] != 42 {
		t.Fatalf("full fetch wrong")
	}
	if got := drain(e, 10, 10, nil, tb.Cols[:1], math.MaxInt); got.Len() != 0 {
		t.Fatal("empty range fetched rows")
	}
}

func TestColScanBatchSizes(t *testing.T) {
	// The batch size is a schedule, not a result: from a non-zero lo, every
	// batch size — unbounded included — returns the same rows in the same
	// order for the same simulated CPU.
	e := newEngine()
	rows := sortedPairs(5000, 11)
	tb, _ := e.CreateTable("t", rows, true)
	lo, hi := e.SelectRange(tb.Cols[0], 25)
	if lo == 0 || hi == lo {
		t.Fatalf("run of 25 is [%d, %d)", lo, hi)
	}
	for name, conds := range map[string][]EqCond{
		"range":   nil,
		"refined": {{C: tb.Cols[0], V: 25}, {C: tb.Cols[1], V: rows.Row(lo + 3)[1]}},
	} {
		var want *rel.Rel
		var wantCPU time.Duration
		for _, batch := range []int{1, 7, 1024, math.MaxInt} {
			e.Store.Clock().Reset()
			got := drain(e, lo, hi, conds, tb.Cols, batch)
			cpu := e.Store.Clock().User()
			if want == nil {
				if want, wantCPU = got, cpu; got.Len() == 0 {
					t.Fatalf("%s scan matched nothing", name)
				}
				continue
			}
			if !slices.Equal(got.Data, want.Data) {
				t.Fatalf("%s scan at batch %d: %d rows differ from batch 1's %d", name, batch, got.Len(), want.Len())
			}
			if cpu != wantCPU {
				t.Fatalf("%s scan at batch %d charged %v, batch 1 %v", name, batch, cpu, wantCPU)
			}
		}
	}
}

func TestUnboundedBatchRequestsExactRanges(t *testing.T) {
	// A scan that hands on its whole range in one batch issues one request
	// per condition and output column, each covering exactly the positions
	// that column needs: [first needed, last needed+1). A one-value page makes
	// the pool's residency the record of what was requested.
	store := simio.NewStore(simio.Config{Machine: simio.MachineB(), PoolBytes: 1 << 30, PageSize: 8})
	e := NewEngine(store)
	r := rel.NewCap(3, 1000)
	for i := 0; i < 1000; i++ {
		var hit uint64
		if i >= 420 && i < 460 && i%10 == 0 {
			hit = 1
		}
		r.Append(uint64(i/100), hit, uint64(i))
	}
	tb, _ := e.CreateTable("t", r, false)
	lead, flag, val := tb.Cols[0], tb.Cols[1], tb.Cols[2]
	lo, hi := e.SelectRange(lead, 4) // [400, 500); the flag narrows it to 420..450
	store.DropCaches()
	store.ResetStats()
	got := drain(e, lo, hi, []EqCond{{C: lead, V: 4}, {C: flag, V: 1}}, []*Column{val}, math.MaxInt)
	if !slices.Equal(got.Data, []uint64{420, 430, 440, 450}) {
		t.Fatalf("scan returned %v", got.Data)
	}
	if n := store.Stats().Requests; n != 3 {
		t.Fatalf("scan issued %d requests, want one per column", n)
	}
	for _, c := range []struct {
		col      *Column
		from, to int
	}{{lead, 400, 500}, {flag, 400, 500}, {val, 420, 451}} {
		store.ResetStats()
		c.col.touch(c.from, c.to)
		if m := store.Stats().PageMisses; m != 0 {
			t.Errorf("%s: %d values of [%d, %d) were never requested", c.col.Name, m, c.from, c.to)
		}
		// touch reads one byte past its range, so the request's own edge
		// page is resident; the values either side of that are not.
		store.ResetStats()
		c.col.touch(c.from-1, c.from)
		c.col.touch(c.to+1, c.to+2)
		if m := store.Stats().PageMisses; m != 3 {
			t.Errorf("%s: request reached past [%d, %d]: %d of 3 outside pages missed", c.col.Name, c.from, c.to, m)
		}
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	e := newEngine()
	rng := rand.New(rand.NewSource(6))
	l := make([]uint64, 400)
	r := make([]uint64, 300)
	for i := range l {
		l[i] = uint64(rng.Intn(40))
	}
	for i := range r {
		r[i] = uint64(rng.Intn(40))
	}
	hl, hr := e.HashJoin(l, r)
	got := map[[2]int32]int{}
	for i := range hl {
		got[[2]int32{hl[i], hr[i]}]++
	}
	pairs := 0
	for i, lv := range l {
		for j, rv := range r {
			if lv != rv {
				continue
			}
			pairs++
			if got[[2]int32{int32(i), int32(j)}] != 1 {
				t.Fatalf("pair (%d, %d) emitted %d times", i, j, got[[2]int32{int32(i), int32(j)}])
			}
		}
	}
	if len(hl) != pairs || len(hr) != pairs {
		t.Fatalf("hash join emitted %d pairs, nested loop %d", len(hl), pairs)
	}
}

func TestPageAtATimeIsSlower(t *testing.T) {
	// The C-Store profile pays per-page request overhead, so a cold full
	// column read costs much more wall time — and a 4x faster disk cannot
	// show a 4x improvement (the Section 3 observation).
	mkEngine := func(m simio.Machine, pageAtATime bool) (*Engine, *Table) {
		store := simio.NewStore(simio.Config{Machine: m, PoolBytes: 1 << 30, PageSize: 4096})
		e := NewEngine(store)
		e.PageAtATime = pageAtATime
		vals := rel.NewCap(1, 400_000)
		for i := 0; i < 400_000; i++ {
			vals.Append(uint64(i))
		}
		tb, _ := e.CreateTable("c", vals, false)
		return e, tb
	}
	fetchAll := func(e *Engine, tb *Table) { drain(e, 0, tb.Rows(), nil, tb.Cols, math.MaxInt) }

	eBulk, tBulk := mkEngine(simio.MachineA(), false)
	eBulk.Store.DropCaches()
	fetchAll(eBulk, tBulk)
	bulk := eBulk.Store.Clock().IO()

	ePage, tPage := mkEngine(simio.MachineA(), true)
	ePage.Store.DropCaches()
	fetchAll(ePage, tPage)
	pageA := ePage.Store.Clock().IO()

	if pageA < 2*bulk {
		t.Fatalf("page-at-a-time %v not ≫ bulk %v", pageA, bulk)
	}

	ePageB, tPageB := mkEngine(simio.MachineB(), true)
	ePageB.Store.DropCaches()
	fetchAll(ePageB, tPageB)
	pageB := ePageB.Store.Clock().IO()

	// Machine B's disk is ~4x faster, but synchronous page I/O must cap
	// the improvement well below 2x.
	improvement := float64(pageA) / float64(pageB)
	if improvement > 2.0 {
		t.Fatalf("page-at-a-time improved %.2fx on machine B; overhead should dominate", improvement)
	}

	// Bulk reads, by contrast, do enjoy most of the bandwidth gain.
	eBulkB, tBulkB := mkEngine(simio.MachineB(), false)
	eBulkB.Store.DropCaches()
	fetchAll(eBulkB, tBulkB)
	bulkB := eBulkB.Store.Clock().IO()
	if ratio := float64(bulk) / float64(bulkB); ratio < 2.0 {
		t.Fatalf("bulk read improved only %.2fx on machine B", ratio)
	}
}

func TestOpsChargeCPU(t *testing.T) {
	e := newEngine()
	rows := sortedPairs(10_000, 9)
	tb, _ := e.CreateTable("t", rows, true)
	e.Store.Clock().Reset()
	v := drain(e, 0, tb.Rows(), nil, tb.Cols[1:], math.MaxInt).Data
	if e.Store.Clock().User() == 0 {
		t.Fatal("full fetch charged no CPU")
	}
	before := e.Store.Clock().User()
	e.HashJoin(v, v[:10])
	if e.Store.Clock().User() <= before {
		t.Fatal("HashJoin charged no CPU")
	}
}

// TestRatesChargeCPU pins the column store's price list: each operator
// class is its decomposition into the vector primitives, priced per row or
// per value as the class moves whole rows or single tests.
func TestRatesChargeCPU(t *testing.T) {
	e := newEngine()
	scale := e.Store.Machine().CPUScale
	clock := func(baseline int64) time.Duration { return time.Duration(float64(baseline) * scale) }
	const n = 1000
	for _, c := range []struct {
		name string
		op   simio.Op
		w    int
		rate int64 // per row at width w
	}{
		{"filter", simio.OpFilter, 3, selectValue},
		{"restrict = select", simio.OpRestrict, 3, selectValue},
		{"hash build = fetch + build", simio.OpHashBuild, 3, fetchValue + hashBuild},
		{"hash probe = fetch + probe", simio.OpHashProbe, 3, fetchValue + hashProbe},
		{"merge = fetch + select", simio.OpMerge, 2, fetchValue + selectValue},
		{"union, width 2", simio.OpUnion, 2, 2 * 8},
		{"union, width 5", simio.OpUnion, 5, 5 * 8},
		{"emit, width 2", simio.OpEmit, 2, 2 * fetchValue},
		{"emit, width 5", simio.OpEmit, 5, 5 * fetchValue},
		{"join emit, width 3", simio.OpJoinEmit, 3, 3 * fetchValue},
		{"join emit, width 6", simio.OpJoinEmit, 6, 6 * fetchValue},
		{"distinct, width 3 (fixed-key path)", simio.OpDistinct, 3, 14},
		{"distinct, width 4 (value by value)", simio.OpDistinct, 4, 4 * 14},
		{"group, 1 key", simio.OpGroup, 1, fetchValue + 16},
		{"group, 2 keys", simio.OpGroup, 2, 2 * (fetchValue + 16)},
		{"sort", simio.OpSort, 1, 7},
	} {
		e.Store.Clock().Reset()
		e.Store.ChargeCPU(Rates[c.op].Price(n, c.w))
		if got, want := e.Store.Clock().User(), clock(n*c.rate); got != want {
			t.Errorf("%s: %d rows charged %v, want %v", c.name, n, got, want)
		}
	}
	e.Store.Clock().Reset()
	e.ChargeNode()
	if got, want := e.Store.Clock().User(), clock(Rates[simio.OpNode].Price(1, 1)); got != want || want != clock(4_000) {
		t.Errorf("operator dispatch charged %v, the rate table prices %v, want %v", got, want, clock(4_000))
	}

	// The row-shaped hash join charges what the executor's hash join does
	// for the same rows: a dispatch, the build and probe, the output gather.
	l, r := rel.New(2), rel.New(2)
	for i := range 10 {
		l.Append(uint64(i), 1)
	}
	for i := range 100 {
		r.Append(uint64(i%20), 2)
	}
	e.Store.Clock().Reset()
	out := e.HashJoinRel(l, r, 0, 0)
	want := Rates[simio.OpNode].Price(1, 1) + Rates[simio.OpHashBuild].Price(l.Len(), l.W) +
		Rates[simio.OpHashProbe].Price(r.Len(), r.W) + Rates[simio.OpJoinEmit].Price(out.Len(), out.W)
	if got := e.Store.Clock().User(); out.Len() != 50 || got != clock(want) {
		t.Errorf("row-shaped hash join: %d rows charged %v, the rate table prices %v", out.Len(), got, clock(want))
	}
}

func TestColumnCheckPanics(t *testing.T) {
	// Positions come from other columns of the same table, so one past the
	// end of a column is an engine bug: it panics rather than reading on.
	e := newEngine()
	r := rel.New(1)
	r.Append(1)
	tb, _ := e.CreateTable("t", r, true)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range position")
		}
	}()
	drain(e, 5, 6, nil, tb.Cols, math.MaxInt)
}
