package rel

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAppendRowLen(t *testing.T) {
	r := New(2)
	r.Append(1, 2)
	r.Append(3, 4)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := r.Row(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("Row(1) = %v", got)
	}
}

func TestAppendPanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(2).Append(1)
}

func TestNewPanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0)
}

func TestColAndProject(t *testing.T) {
	r := New(3)
	r.Append(1, 2, 3)
	r.Append(4, 5, 6)
	col := r.Col(1)
	if len(col) != 2 || col[0] != 2 || col[1] != 5 {
		t.Fatalf("Col = %v", col)
	}
	p := r.Project(2, 0)
	if p.W != 2 || p.Len() != 2 {
		t.Fatalf("Project shape: %v", p)
	}
	if row := p.Row(0); row[0] != 3 || row[1] != 1 {
		t.Fatalf("Project row = %v", row)
	}
}

func TestColPanicsOutOfRange(t *testing.T) {
	r := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Col(5)
}

func TestSortAndEqual(t *testing.T) {
	a := New(2)
	a.Append(3, 1)
	a.Append(1, 2)
	a.Append(1, 1)
	b := New(2)
	b.Append(1, 1)
	b.Append(3, 1)
	b.Append(1, 2)
	if !Equal(a, b) {
		t.Fatal("same bags not Equal")
	}
	a.Sort()
	if r0 := a.Row(0); r0[0] != 1 || r0[1] != 1 {
		t.Fatalf("Sort order wrong: %v", r0)
	}
	c := New(2)
	c.Append(1, 1)
	if Equal(a, c) {
		t.Fatal("different lengths Equal")
	}
	d := New(1)
	if Equal(a, d) {
		t.Fatal("different widths Equal")
	}
	// Bag semantics: duplicate multiplicity matters.
	e := New(2)
	e.Append(1, 1)
	e.Append(1, 1)
	e.Append(3, 1)
	if Equal(a, e) {
		t.Fatal("different multiplicities Equal")
	}
}

func TestEqualProperty(t *testing.T) {
	f := func(rows [][2]uint64) bool {
		a := New(2)
		for _, row := range rows {
			a.Append(row[0], row[1])
		}
		// b is a rotated copy — same bag.
		b := New(2)
		for i := range rows {
			row := rows[(i+1)%len(rows)]
			b.Append(row[0], row[1])
		}
		if len(rows) == 0 {
			return Equal(a, b)
		}
		return Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewCapAndString(t *testing.T) {
	r := NewCap(2, 100)
	if r.Len() != 0 {
		t.Fatal("NewCap not empty")
	}
	r.Append(1, 2)
	if s := r.String(); s == "" {
		t.Fatal("empty String")
	}
}

// sortByRowCopies is Sort as it was before it sorted in place: one slice
// per row, sort.Slice over them, everything copied back. The reference
// TestSortMatchesRowCopySort holds the in-place sort to.
func sortByRowCopies(r *Rel) {
	n := r.Len()
	rows := make([][]uint64, n)
	for i := 0; i < n; i++ {
		rows[i] = append([]uint64(nil), r.Row(i)...)
	}
	sort.Slice(rows, func(i, j int) bool { return lessRow(rows[i], rows[j]) })
	r.Data = r.Data[:0]
	for _, row := range rows {
		r.Data = append(r.Data, row...)
	}
}

// TestSortMatchesRowCopySort: the order is lexicographic over all columns,
// so equal keys are equal rows and any correct algorithm yields the same
// bytes — checked against the old implementation on random relations of
// width 1–4 drawn from few values, so duplicates abound.
func TestSortMatchesRowCopySort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		w := 1 + trial%4
		a := New(w)
		for n := rng.Intn(200); n > 0; n-- {
			for c := 0; c < w; c++ {
				a.Data = append(a.Data, uint64(rng.Intn(4)))
			}
		}
		b := &Rel{W: w, Data: append([]uint64(nil), a.Data...)}
		a.Sort()
		sortByRowCopies(b)
		if !slices.Equal(a.Data, b.Data) {
			t.Fatalf("trial %d (w=%d, n=%d): in-place sort differs from the row-copy sort", trial, w, b.Len())
		}
	}
	unsorted := []uint64{3, 1, 1, 2, 1, 1}
	r := &Rel{W: 2, Data: make([]uint64, len(unsorted))}
	if allocs := testing.AllocsPerRun(10, func() {
		copy(r.Data, unsorted)
		r.Sort()
	}); allocs != 0 {
		t.Fatalf("Sort allocates %v objects, want none", allocs)
	}
}

// joinRef is the per-key slice table JoinIndex replaced.
func joinRef(r *Rel, c int) map[uint64][]int {
	ref := map[uint64][]int{}
	for i := 0; i < r.Len(); i++ {
		ref[r.Row(i)[c]] = append(ref[r.Row(i)[c]], i)
	}
	return ref
}

func joinMatches(x *JoinIndex, k uint64) []int {
	var out []int
	for i := x.First(k); i >= 0; i = x.Next(i) {
		out = append(out, i)
	}
	return out
}

func TestJoinIndex(t *testing.T) {
	// Duplicate keys keep build-insertion order; key 0 is a key like any other.
	r := New(2)
	for _, k := range []uint64{7, 0, 7, 9, 0, 7} {
		r.Append(uint64(r.Len()), k)
	}
	x := NewJoinIndex(r, 1)
	for k, want := range map[uint64][]int{7: {0, 2, 5}, 0: {1, 4}, 9: {3}, 8: nil} {
		if got := joinMatches(x, k); !slices.Equal(got, want) {
			t.Errorf("key %d: rows %v, want %v", k, got, want)
		}
	}
	// An empty build side answers every probe with no match.
	empty := NewJoinIndex(New(3), 2)
	for _, k := range []uint64{0, 1, ^uint64(0)} {
		if i := empty.First(k); i != -1 {
			t.Errorf("empty index: First(%d) = %d", k, i)
		}
	}
	// Forced collision chains: sixteen distinct keys homed on the last slot
	// of the 128-slot table their 40 rows get, so the walk wraps around, plus
	// four keys homed on the first slots, where that chain has spilled.
	var keys []uint64
	for k := uint64(1); len(keys) < 16; k++ {
		if k*0x9E3779B97F4A7C15>>57 == 127 {
			keys = append(keys, k)
		}
	}
	for k := uint64(1); len(keys) < 20; k++ {
		if k*0x9E3779B97F4A7C15>>57 < 4 {
			keys = append(keys, k)
		}
	}
	c := New(1)
	for rep := 0; rep < 2; rep++ {
		for _, k := range keys {
			c.Append(k)
		}
	}
	cx, ref := NewJoinIndex(c, 0), joinRef(c, 0)
	if len(cx.tab.slots) != 128 {
		t.Fatalf("collision fixture assumes a 128-slot table, got %d", len(cx.tab.slots))
	}
	for _, k := range keys {
		if got := joinMatches(cx, k); !slices.Equal(got, ref[k]) {
			t.Errorf("colliding key %d: rows %v, want %v", k, got, ref[k])
		}
	}
}

// TestJoinIndexProperty probes random indexes a million times against the
// per-key slice table: every key, present or absent, must list exactly the
// reference's rows in the reference's order.
func TestJoinIndexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	probes := 0
	for trial := 0; probes < 1_000_000; trial++ {
		w, n := 1+rng.Intn(3), rng.Intn(3000)
		span := uint64(1 + rng.Intn(2*n+1)) // few keys → long chains, many → mostly unique
		r := New(w)
		for i := 0; i < n*w; i++ {
			r.Data = append(r.Data, rng.Uint64()%span)
		}
		c := rng.Intn(w)
		x, ref := NewJoinIndex(r, c), joinRef(r, c)
		for p := 0; p < 20_000; p++ {
			k := rng.Uint64() % (span + span/2 + 1)
			i := x.First(k)
			for _, want := range ref[k] {
				if i != want {
					t.Fatalf("trial %d key %d: row %d, want %d (reference %v)", trial, k, i, want, ref[k])
				}
				i = x.Next(i)
			}
			if i != -1 {
				t.Fatalf("trial %d key %d: extra row %d past reference %v", trial, k, i, ref[k])
			}
			probes++
		}
	}
}
