package rowstore

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"blackswan/internal/btree"
	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

func newEngine() *Engine {
	store := simio.NewStore(simio.Config{Machine: simio.MachineB(), PoolBytes: 1 << 30, PageSize: 4096})
	return NewEngine(store)
}

// tripleRows builds a deterministic triples relation.
func tripleRows(n int, seed int64) *rel.Rel {
	rng := rand.New(rand.NewSource(seed))
	r := rel.NewCap(3, n)
	for i := 0; i < n; i++ {
		r.Append(uint64(rng.Intn(200)+1), uint64(rng.Intn(20)+1), uint64(rng.Intn(100)+1))
	}
	return r
}

func loadTriples(t *testing.T, e *Engine, rows *rel.Rel, clustered Perm, secondary ...Perm) *Table {
	t.Helper()
	tb, err := e.CreateTable(TableSpec{
		Name: "triples", Width: 3, Clustered: clustered, Secondary: secondary, PrefixCompress: true,
	}, rows)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return tb
}

// drain collects a scan of every column of tb, pulled batch rows at a time.
func drain(e *Engine, tb *Table, bound map[int]uint64, batch int) *rel.Rel {
	cols := make([]int, tb.Width)
	for i := range cols {
		cols[i] = i
	}
	c := e.ScanEqStream(tb, bound, batch, cols...)
	out := rel.New(tb.Width)
	var b rel.Rel
	for c.Next(&b) {
		out.Data = append(out.Data, b.Data...)
	}
	return out
}

func TestCreateTableValidation(t *testing.T) {
	e := newEngine()
	rows := tripleRows(10, 1)
	if _, err := e.CreateTable(TableSpec{Name: "t", Width: 3, Clustered: Perm{0, 1}}, rows); err == nil {
		t.Fatal("short permutation accepted")
	}
	if _, err := e.CreateTable(TableSpec{Name: "t", Width: 3, Clustered: Perm{0, 0, 1}}, rows); err == nil {
		t.Fatal("repeated column accepted")
	}
	if _, err := e.CreateTable(TableSpec{Name: "t", Width: 2, Clustered: Perm{0, 1}}, rows); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if _, err := e.CreateTable(TableSpec{Name: "t", Width: 3, Clustered: Perm{0, 1, 2}}, rows); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if _, err := e.CreateTable(TableSpec{Name: "t", Width: 3, Clustered: Perm{0, 1, 2}}, rows); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := e.Table("missing"); err == nil {
		t.Fatal("missing table lookup succeeded")
	}
	if !e.HasTable("t") || e.Tables() != 1 {
		t.Fatal("catalog wrong")
	}
}

func TestScanAllReturnsEverything(t *testing.T) {
	e := newEngine()
	rows := tripleRows(5000, 2)
	tb := loadTriples(t, e, rows, Perm{1, 0, 2}) // PSO
	got := drain(e, tb, nil, math.MaxInt)
	if !rel.Equal(got, rows) {
		t.Fatalf("full scan returned %d rows, want %d (or content differs)", got.Len(), rows.Len())
	}
}

func TestScanEqMatchesLinearFilter(t *testing.T) {
	e := newEngine()
	rows := tripleRows(5000, 3)
	tb := loadTriples(t, e, rows, Perm{1, 0, 2}, Perm{0, 1, 2}, Perm{2, 0, 1})
	cases := []map[int]uint64{
		{1: 5},          // property bound — matches PSO prefix
		{0: 17},         // subject bound — matches SPO secondary
		{2: 40},         // object bound — matches OSP secondary
		{1: 5, 0: 17},   // property+subject
		{0: 17, 2: 40},  // subject+object
		{1: 5, 2: 1000}, // no matches
	}
	for _, bound := range cases {
		want := rel.New(3)
		for i := 0; i < rows.Len(); i++ {
			row := rows.Row(i)
			ok := true
			for c, v := range bound {
				if row[c] != v {
					ok = false
					break
				}
			}
			if ok {
				want.Data = append(want.Data, row...)
			}
		}
		got := drain(e, tb, bound, math.MaxInt)
		if !rel.Equal(got, want) {
			t.Fatalf("scan %v: got %d rows, want %d", bound, got.Len(), want.Len())
		}
	}
}

func TestPickIndexPrefersLongestPrefix(t *testing.T) {
	e := newEngine()
	rows := tripleRows(20_000, 4) // large enough for leaf-level estimates
	tb := loadTriples(t, e, rows, Perm{1, 0, 2}, Perm{2, 1, 0})
	// (o,p) bound: the OPS secondary covers both fields and the range is
	// selective (~1/2000 of the data), so it wins over the clustered PSO.
	ix, plen := pickIndex(tb, map[int]uint64{2: 1, 1: 1})
	if ix.Perm.String() != "210" || plen != 2 {
		t.Fatalf("picked %v plen %d, want 210 plen 2", ix.Perm, plen)
	}
	// Property-only binding: PSO clustered covers 1 field.
	ix, plen = pickIndex(tb, map[int]uint64{1: 1})
	if ix.Perm.String() != "102" || plen != 1 {
		t.Fatalf("picked %v plen %d, want 102 plen 1", ix.Perm, plen)
	}
	// Nothing bound: clustered full scan.
	ix, plen = pickIndex(tb, nil)
	if !ix.Clustered || plen != 0 {
		t.Fatal("unbound scan should use clustered index")
	}
}

func TestPickIndexDemotesWideSecondaryRanges(t *testing.T) {
	// An SPO-clustered table with a POS secondary: a property covering 50%
	// of the rows must NOT use the unclustered index (the optimizer's
	// selectivity rule), while a rare property may.
	e := newEngine()
	rows := rel.NewCap(3, 40_000)
	for i := 0; i < 40_000; i++ {
		p := uint64(1) // the dominant property
		if i%2 == 0 {
			p = uint64(i%50) + 2
		}
		rows.Append(uint64(i), p, uint64(i%97))
	}
	tb, err := e.CreateTable(TableSpec{
		Name: "t", Width: 3, Clustered: Perm{0, 1, 2},
		Secondary: []Perm{{1, 2, 0}}, PrefixCompress: true,
	}, rows)
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := pickIndex(tb, map[int]uint64{1: 1})
	if !ix.Clustered {
		t.Fatal("wide range should fall back to the clustered index")
	}
	ix, plen := pickIndex(tb, map[int]uint64{1: 17})
	if ix.Clustered || plen != 1 {
		t.Fatalf("selective range should use the POS secondary, got %v", ix.Perm)
	}
}

func TestClusteringAffectsIO(t *testing.T) {
	// A property-bound scan must read far less through a PSO clustering
	// than through an SPO clustering with no helpful secondary index.
	rows := tripleRows(200_000, 5)

	ePSO := newEngine()
	tPSO := loadTriples(t, ePSO, rows, Perm{1, 0, 2})
	ePSO.Store.DropCaches()
	ePSO.Store.ResetStats()
	resPSO := drain(ePSO, tPSO, map[int]uint64{1: 7}, math.MaxInt)
	bytesPSO := ePSO.Store.Stats().BytesRead

	eSPO := newEngine()
	tSPO := loadTriples(t, eSPO, rows, Perm{0, 1, 2})
	eSPO.Store.DropCaches()
	eSPO.Store.ResetStats()
	resSPO := drain(eSPO, tSPO, map[int]uint64{1: 7}, math.MaxInt)
	bytesSPO := eSPO.Store.Stats().BytesRead

	if !rel.Equal(resPSO, resSPO) {
		t.Fatal("clusterings disagree on results")
	}
	if bytesPSO*5 > bytesSPO {
		t.Fatalf("PSO read %d bytes, SPO %d — want ≥5x advantage", bytesPSO, bytesSPO)
	}
}

func TestScanCursorBatchSizes(t *testing.T) {
	// The batch size is a schedule, not a result: from a range that starts
	// mid-tree, with and without a residual filter, every batch size —
	// unbounded included — returns the same rows in the same order for the
	// same simulated CPU.
	e := newEngine()
	tb := loadTriples(t, e, tripleRows(30_000, 9), Perm{1, 0, 2}, Perm{2, 0, 1})
	for _, bound := range []map[int]uint64{{1: 11}, {1: 11, 2: 40}, {2: 40}, nil} {
		var want *rel.Rel
		var wantCPU time.Duration
		for _, batch := range []int{1, 7, 1024, math.MaxInt} {
			e.Store.Clock().Reset()
			got := drain(e, tb, bound, batch)
			cpu := e.Store.Clock().User()
			if want == nil {
				if want, wantCPU = got, cpu; got.Len() == 0 {
					t.Fatalf("scan %v matched nothing", bound)
				}
				continue
			}
			if !slices.Equal(got.Data, want.Data) {
				t.Fatalf("scan %v at batch %d: %d rows differ from batch 1's %d", bound, batch, got.Len(), want.Len())
			}
			if cpu != wantCPU {
				t.Fatalf("scan %v at batch %d charged %v, batch 1 %v", bound, batch, cpu, wantCPU)
			}
		}
	}
}

func TestExists(t *testing.T) {
	e := newEngine()
	r := rel.New(3)
	r.Append(1, 2, 3)
	r.Append(4, 5, 6)
	tb := loadTriples(t, e, r, Perm{0, 1, 2})
	// The point-query triple pattern p1: every column bound, one row pulled.
	exists := func(bound map[int]uint64) bool {
		var b rel.Rel
		return e.ScanEqStream(tb, bound, 1, 0).Next(&b)
	}
	if !exists(map[int]uint64{0: 1, 1: 2, 2: 3}) {
		t.Fatal("present row not found")
	}
	if exists(map[int]uint64{0: 1, 1: 2, 2: 4}) {
		t.Fatal("absent row found")
	}
}

func TestHashJoinCorrect(t *testing.T) {
	e := newEngine()
	l := rel.New(2)
	l.Append(1, 100)
	l.Append(2, 200)
	l.Append(2, 201)
	r := rel.New(2)
	r.Append(2, 900)
	r.Append(3, 901)
	r.Append(2, 902)
	got := e.HashJoin(l, r, 0, 0)
	want := rel.New(4)
	want.Append(2, 200, 2, 900)
	want.Append(2, 200, 2, 902)
	want.Append(2, 201, 2, 900)
	want.Append(2, 201, 2, 902)
	if !rel.Equal(got, want) {
		t.Fatalf("HashJoin = %v", got)
	}
	// Column order is preserved when the build side swaps.
	big := rel.New(2)
	for i := 0; i < 100; i++ {
		big.Append(2, uint64(i))
	}
	got2 := e.HashJoin(big, r.Project(0, 1), 0, 0)
	if got2.W != 4 || got2.Len() != 200 {
		t.Fatalf("swapped join shape: w=%d n=%d", got2.W, got2.Len())
	}
	if row := got2.Row(0); row[0] != 2 {
		t.Fatalf("swapped join column order broken: %v", row)
	}
}

func TestOperatorsChargeCPU(t *testing.T) {
	e := newEngine()
	rows := tripleRows(10_000, 7)
	tb := loadTriples(t, e, rows, Perm{1, 0, 2})
	scale := e.Store.Machine().CPUScale
	clock := func(baseline int64) time.Duration { return time.Duration(float64(baseline) * scale) }
	e.Store.Clock().Reset()
	all := drain(e, tb, nil, math.MaxInt)
	n := all.Len()
	// A scan opens one node, descends the B+tree once (1 500 ns) and emits
	// each tuple at the finished-row price.
	if got, want := e.Store.Clock().User(), clock(25_000+1_500+int64(n)*90); got != want {
		t.Fatalf("scan of %d tuples charged %v, want %v", n, got, want)
	}
	// The rate table prices n rows at the engine's per-tuple rate for the
	// operator class, flat in width, on top of whatever the clock holds.
	for _, c := range []struct {
		name string
		op   simio.Op
		w    int
		rate int64
	}{
		{"filter", simio.OpFilter, 3, 25},
		{"hash build", simio.OpHashBuild, 3, 140},
		{"hash probe", simio.OpHashProbe, 3, 110},
		{"merge", simio.OpMerge, 3, 60},
		{"group", simio.OpGroup, 1, 130},
		{"union", simio.OpUnion, 3, 100},
		{"distinct", simio.OpDistinct, 3, 110},
		{"restrict", simio.OpRestrict, 3, 110}, // a hash semijoin probe
		{"emit", simio.OpEmit, 3, 90},          // a scan's per-tuple price
		{"join emit", simio.OpJoinEmit, 6, 0},
		{"sort", simio.OpSort, 1, 70},
	} {
		for _, w := range []int{c.w, c.w + 4} {
			e.Store.Clock().Reset()
			e.Store.ChargeCPU(Rates[c.op].Price(n, w))
			if got, want := e.Store.Clock().User(), clock(int64(n)*c.rate); got != want {
				t.Errorf("%s: %d rows of width %d charged %v, want %v", c.name, n, w, got, want)
			}
		}
	}
	e.Store.Clock().Reset()
	e.node()
	if got, want := e.Store.Clock().User(), clock(Rates[simio.OpNode].Price(1, 1)); got != want || want != clock(25_000) {
		t.Errorf("node startup charged %v, the rate table prices %v, want %v", got, want, clock(25_000))
	}
	// The standalone hash join charges what the executor's does for the same
	// rows: a node, the build and probe, and a free output.
	l, r := &rel.Rel{W: 3, Data: all.Data[:30]}, &rel.Rel{W: 3, Data: all.Data[:300]}
	e.Store.Clock().Reset()
	out := e.HashJoin(l, r, 0, 0)
	want := Rates[simio.OpNode].Price(1, 1) + Rates[simio.OpHashBuild].Price(l.Len(), l.W) +
		Rates[simio.OpHashProbe].Price(r.Len(), r.W) + Rates[simio.OpJoinEmit].Price(out.Len(), out.W)
	if got := e.Store.Clock().User(); out.Len() < 10 || got != clock(want) {
		t.Errorf("hash join: %d rows charged %v, the rate table prices %v", out.Len(), got, clock(want))
	}
}

func TestPrefixCompressionReducesFootprint(t *testing.T) {
	rows := tripleRows(100_000, 8)
	e1 := newEngine()
	t1, err := e1.CreateTable(TableSpec{Name: "c", Width: 3, Clustered: Perm{1, 0, 2}, PrefixCompress: true}, rows)
	if err != nil {
		t.Fatal(err)
	}
	e2 := newEngine()
	t2, err := e2.CreateTable(TableSpec{Name: "p", Width: 3, Clustered: Perm{1, 0, 2}}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if t1.SizeBytes() >= t2.SizeBytes() {
		t.Fatalf("compressed %d >= plain %d", t1.SizeBytes(), t2.SizeBytes())
	}
}

// allPerms lists every permutation of {0..w-1}.
func allPerms(w int) []Perm {
	if w == 1 {
		return []Perm{{0}}
	}
	var out []Perm
	for _, p := range allPerms(w - 1) {
		for at := 0; at <= len(p); at++ {
			out = append(out, slices.Insert(slices.Clone(p), at, w-1))
		}
	}
	return out
}

// TestSortIndexKeysMatchesFullSort holds the derived index sorts to a
// comparison sort of the rows under each permutation: widths 1–3, every
// clustered choice, secondaries in shuffled order with repeats, duplicate
// rows, and identifiers up to 64 bits wide.
func TestSortIndexKeysMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 60; trial++ {
		w := 1 + trial%3
		rows := rel.New(w)
		for n := rng.Intn(2000); n > 0; n-- {
			for c := 0; c < w; c++ {
				v := uint64(rng.Intn(30))
				if rng.Intn(10) == 0 {
					v = rng.Uint64() >> rng.Intn(64)
				}
				rows.Data = append(rows.Data, v)
			}
		}
		perms := allPerms(w)
		rng.Shuffle(len(perms), func(i, j int) { perms[i], perms[j] = perms[j], perms[i] })
		perms = append(perms, perms[rng.Intn(len(perms))])
		keys := sortIndexKeys(perms, rows)
		for i, p := range perms {
			want := make([]btree.Key, rows.Len())
			for r := range want {
				for j, c := range p {
					want[r][j] = rows.Data[r*w+c]
				}
			}
			slices.SortFunc(want, func(a, b btree.Key) int { return btree.Compare(a, b, w) })
			if !slices.Equal(keys[i], want) {
				t.Fatalf("trial %d (w=%d, perms %v): index %v differs from a full sort", trial, w, perms, p)
			}
		}
	}
}

// TestSortFields pins how many fields each derivation sorts: the row
// triple store's PSO clustering feeds every other order through one-field
// sorts, and a vertical table's OS index is one field from its SO one.
func TestSortFields(t *testing.T) {
	S, P, O := 0, 1, 2
	for _, c := range []struct {
		from, to Perm
		want     int
	}{
		{Perm{P, S, O}, Perm{P, S, O}, 0},
		{Perm{P, S, O}, Perm{S, P, O}, 1},
		{Perm{P, S, O}, Perm{O, P, S}, 1},
		{Perm{P, S, O}, Perm{P, O, S}, 2},
		{Perm{S, P, O}, Perm{O, S, P}, 1},
		{Perm{O, S, P}, Perm{S, O, P}, 1},
		{Perm{O, P, S}, Perm{P, O, S}, 1},
		{Perm{S, P, O}, Perm{P, O, S}, 2},
		{Perm{0, 1}, Perm{1, 0}, 1},
	} {
		if got := sortFields(c.from, c.to); got != c.want {
			t.Errorf("sortFields(%v, %v) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}
