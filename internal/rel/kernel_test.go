package rel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Differential tests of the executor's one hash table against map-plus-sort
// references: grouping on one and two key words, distinct rows of width 1–4,
// JoinIndex chains and the key-range filter, and SortKeys.

// edgeKeys are the words a key encoding could trip on: zero, both sides of
// the 32-bit boundary the slots keep keys under, the sign bit, the top.
var edgeKeys = []uint64{0, 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}

// kernelSizes crosses every growth step of a table (16 slots and 8 entries
// at first, doubling) and of a JoinIndex's slot array.
func kernelSizes() []int {
	sizes := []int{0, 1, 2, 3}
	for p := 4; p <= 8192; p *= 2 {
		sizes = append(sizes, p-1, p, p+1)
	}
	return sizes
}

// keyGen draws words for one trial: from a handful of values (duplicates
// dominate), from below 2³² (the slots decide alone), or from anywhere with
// the edge keys mixed in.
type keyGen struct {
	rng  *rand.Rand
	mode int
	dom  uint64
}

func (g keyGen) word() uint64 {
	switch g.mode {
	case 0:
		return uint64(g.rng.Intn(3)) * 7
	case 1:
		return uint64(g.rng.Int63n(int64(g.dom)))
	}
	if g.rng.Intn(4) == 0 {
		return edgeKeys[g.rng.Intn(len(edgeKeys))]
	}
	return g.rng.Uint64() % g.dom
}

func (g keyGen) String() string { return fmt.Sprintf("mode %d, domain %d", g.mode, g.dom) }

func kernelTrials(seed int64, each func(n int, g keyGen)) {
	rng := rand.New(rand.NewSource(seed))
	for _, n := range kernelSizes() {
		for mode := 0; mode < 3; mode++ {
			dom := uint64(1 + rng.Intn(2*n+2))
			if mode == 1 {
				dom = 1 << 32
			}
			each(n, keyGen{rng: rng, mode: mode, dom: dom})
		}
	}
}

// TestKernelGroupsMatchMapAndSort counts n rows into a table keyed on their
// first k words, as a group does, and checks the sorted entries against a
// map of counts and sort.
func TestKernelGroupsMatchMapAndSort(t *testing.T) {
	for k := 1; k <= 2; k++ {
		kernelTrials(int64(k), func(n int, g keyGen) {
			tab := NewTable(k+1, k)
			ref := map[[2]uint64]uint64{}
			for i := 0; i < n; i++ {
				var key [2]uint64
				for j := 0; j < k; j++ {
					key[j] = g.word()
				}
				r, added := tab.Add(key[:k])
				if _, seen := ref[key]; seen == added {
					t.Fatalf("k=%d n=%d %v: Add(%v) reported added=%v", k, n, g, key[:k], added)
				}
				tab.Data[r*(k+1)+k]++
				ref[key]++
			}
			want := New(k + 1)
			for key, c := range ref {
				want.Data = append(append(want.Data, key[:k]...), c)
			}
			want.Sort()
			if got := tab.Sorted(); !slices.Equal(got.Data, want.Data) {
				t.Fatalf("k=%d n=%d %v: groups differ\ngot  %v\nwant %v", k, n, g, got, want)
			}
		})
	}
}

// TestKernelDistinctMatchesMap keeps the first occurrence of every row of
// width 1–4, as a distinct does: the entries must be exactly the reference's
// first occurrences, in input order.
func TestKernelDistinctMatchesMap(t *testing.T) {
	for w := 1; w <= 4; w++ {
		kernelTrials(int64(10+w), func(n int, g keyGen) {
			tab := NewTable(w, w)
			seen := map[[4]uint64]bool{}
			var want []uint64
			row := make([]uint64, w)
			for i := 0; i < n; i++ {
				var key [4]uint64
				for j := range row {
					row[j] = g.word()
					key[j] = row[j]
				}
				_, added := tab.Add(row)
				if added == seen[key] {
					t.Fatalf("w=%d n=%d %v: Add(%v) reported added=%v", w, n, g, row, added)
				}
				if !seen[key] {
					seen[key] = true
					want = append(want, row...)
				}
			}
			if !slices.Equal(tab.Data, want) {
				t.Fatalf("w=%d n=%d %v: kept rows differ", w, n, g)
			}
		})
	}
}

// TestKernelWideKeySharesLowHalf: a slot keeps a one-word key as its low 32
// bits and decides alone only while every key is narrower, so a wide key
// homed on the slot of a narrow one with the same low half — added after
// it or before it — is a key of its own.
func TestKernelWideKeySharesLowHalf(t *testing.T) {
	for _, k := range []uint64{0, 1, 1<<32 - 1} {
		for _, wideFirst := range []bool{false, true} {
			tab := NewTable(2, 1)
			home := func(v uint64) uint64 { return v * 0x9E3779B97F4A7C15 >> tab.shift }
			w := k + 1<<32
			for home(w) != home(k) {
				w += 1 << 32
			}
			keys := []uint64{k, w}
			if wideFirst {
				keys = []uint64{w, k}
			}
			for i, key := range append(keys, keys...) {
				if r, added := tab.Add([]uint64{key}); r != i%2 || added != (i < 2) {
					t.Fatalf("keys %v: Add(%d) = row %d, added %v; want row %d, added %v", keys, key, r, added, i%2, i < 2)
				}
			}
		}
	}
}

// TestKernelJoinChainsMatchMap builds indexes on every growth step over
// narrow, wide and duplicate-heavy keys, and probes each with every build
// key, its neighbours, the build's lo and hi and their neighbours — below
// lo, k−lo wraps — and the edge keys: every chain must list exactly the
// reference's rows in build order.
func TestKernelJoinChainsMatchMap(t *testing.T) {
	kernelTrials(20, func(n int, g keyGen) {
		w := 1 + n%3
		r := New(w)
		for i := 0; i < n*w; i++ {
			r.Data = append(r.Data, g.word())
		}
		c := n % w
		x, ref := NewJoinIndex(r, c), joinRef(r, c)
		probes := slices.Clone(edgeKeys)
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for i := 0; i < n; i++ {
			k := r.Row(i)[c]
			lo, hi = min(lo, k), max(hi, k)
			probes = append(probes, k-1, k, k+1)
		}
		probes = append(probes, lo-1, lo, lo+1, hi-1, hi, hi+1, lo-1<<40)
		for _, k := range probes {
			if got := joinMatches(x, k); !slices.Equal(got, ref[k]) {
				t.Fatalf("n=%d w=%d %v: key %d: rows %v, want %v", n, w, g, k, got, ref[k])
			}
		}
	})
}

// TestKernelFilterBudget pins when the range filter keeps a bitmap: a
// span of at most eight keys a slot (the bitmap at most ⅛ of the 8-byte
// slots), never a wider one.
func TestKernelFilterBudget(t *testing.T) {
	for _, tc := range []struct {
		span   uint64
		bitmap bool
	}{{0, true}, {64*64/8 - 1, true}, {64 * 64 / 8, false}, {1 << 40, false}} {
		r := New(1)
		for i := uint64(0); i < 32; i++ {
			r.Data = append(r.Data, 1000+i*tc.span/31)
		}
		x := NewJoinIndex(r, 0) // 32 rows: 64 slots
		if got := x.present != nil; got != tc.bitmap || len(x.present)*8 > len(x.tab.slots) {
			t.Errorf("span %d: bitmap %v (%d words for %d slots), want %v", tc.span, got, len(x.present), len(x.tab.slots), tc.bitmap)
		}
	}
}

// TestKernelSortKeysMatchesSort orders rows of width 1–4 on their first k words
// against a stable sort, with and without a scratch buffer, through even
// and odd pass counts and a scratch longer than the rows.
func TestKernelSortKeysMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 400; trial++ {
		w := 1 + trial%4
		k := 1 + rng.Intn(w)
		g := keyGen{rng: rng, mode: trial % 3, dom: 1 << uint(1+rng.Intn(40))}
		r := New(w)
		for n := rng.Intn(3000); n > 0; n-- {
			for c := 0; c < w; c++ {
				r.Data = append(r.Data, g.word())
			}
		}
		want := slices.Clone(r.Data)
		rows := make([][]uint64, r.Len())
		for i := range rows {
			rows[i] = want[i*w : (i+1)*w]
		}
		slices.SortStableFunc(rows, func(a, b []uint64) int { return slices.Compare(a[:k], b[:k]) })
		want = slices.Concat(rows...)
		var scratch []uint64
		if trial%2 == 0 {
			scratch = make([]uint64, len(r.Data)+rng.Intn(64))
		}
		r.SortKeys(k, scratch)
		if !slices.Equal(r.Data, want) {
			t.Fatalf("trial %d (w=%d, k=%d, n=%d, %v): SortKeys differs from a stable sort", trial, w, k, len(want)/w, g)
		}
	}
}
