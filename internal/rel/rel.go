// Package rel provides the flat tuple representation shared by the two
// engines: a relation is a row-packed []uint64 with a fixed width. Both the
// row-store's Volcano operators and the column-store's vector operators
// produce Rel values, so the benchmark harness and the result-correctness
// tests can compare engines directly.
package rel

import (
	"fmt"
	"sort"
)

// Rel is a fixed-width relation of uint64 attributes. Row i occupies
// Data[i*W : (i+1)*W]. A Rel with W==0 is invalid except as a zero value.
type Rel struct {
	W    int
	Data []uint64
}

// New returns an empty relation of width w.
func New(w int) *Rel {
	if w < 1 {
		panic(fmt.Sprintf("rel: invalid width %d", w))
	}
	return &Rel{W: w}
}

// NewCap returns an empty relation of width w with capacity for n rows.
func NewCap(w, n int) *Rel {
	r := New(w)
	r.Data = make([]uint64, 0, w*n)
	return r
}

// Len returns the number of rows.
func (r *Rel) Len() int {
	if r.W == 0 {
		return 0
	}
	return len(r.Data) / r.W
}

// Append adds one row, which must have exactly W values.
func (r *Rel) Append(vals ...uint64) {
	if len(vals) != r.W {
		panic(fmt.Sprintf("rel: append %d values to width-%d relation", len(vals), r.W))
	}
	r.Data = append(r.Data, vals...)
}

// Row returns row i as a slice aliasing the underlying storage.
func (r *Rel) Row(i int) []uint64 {
	return r.Data[i*r.W : (i+1)*r.W]
}

// Col extracts column c into a fresh slice.
func (r *Rel) Col(c int) []uint64 {
	if c < 0 || c >= r.W {
		panic(fmt.Sprintf("rel: column %d out of width %d", c, r.W))
	}
	out := make([]uint64, r.Len())
	for i := range out {
		out[i] = r.Data[i*r.W+c]
	}
	return out
}

// Project returns a new relation keeping only the given columns, in order.
func (r *Rel) Project(cols ...int) *Rel {
	out := NewCap(len(cols), r.Len())
	n := r.Len()
	for i := 0; i < n; i++ {
		row := r.Row(i)
		for _, c := range cols {
			out.Data = append(out.Data, row[c])
		}
	}
	return out
}

// Sort orders rows lexicographically in place (all columns significant,
// left to right). Used to canonicalize results for comparison. Equal keys
// are equal rows, so the algorithm's stability cannot show in the bytes.
func (r *Rel) Sort() { sort.Sort(byRow{r}) }

type byRow struct{ r *Rel }

func (s byRow) Len() int           { return s.r.Len() }
func (s byRow) Less(i, j int) bool { return lessRow(s.r.Row(i), s.r.Row(j)) }
func (s byRow) Swap(i, j int) {
	a, b := s.r.Row(i), s.r.Row(j)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

func lessRow(a, b []uint64) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// Equal reports whether two relations hold exactly the same bag of rows
// (order-insensitive). It sorts copies; intended for tests and validation.
func Equal(a, b *Rel) bool {
	if a.W != b.W || a.Len() != b.Len() {
		return false
	}
	ca := &Rel{W: a.W, Data: append([]uint64(nil), a.Data...)}
	cb := &Rel{W: b.W, Data: append([]uint64(nil), b.Data...)}
	ca.Sort()
	cb.Sort()
	for i := range ca.Data {
		if ca.Data[i] != cb.Data[i] {
			return false
		}
	}
	return true
}

// JoinIndex is the hash table of every hash join in both engines and the
// executor: open addressing on the uint64 key, with the build rows of one
// key chained through int32 links in build-insertion order, so a probe
// emits matches exactly as appending to a per-key slice would. Built from a
// relation and a column in two allocations; read-only afterwards, so
// concurrent probes are safe. Rows are stored +1: zero means none.
type JoinIndex struct {
	shift uint
	slots []joinSlot
	next  []int32
}

type joinSlot struct {
	key  uint64
	head int32
}

// NewJoinIndex indexes column c of r.
func NewJoinIndex(r *Rel, c int) *JoinIndex {
	n := r.Len()
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	x := &JoinIndex{shift: 64 - bits, slots: make([]joinSlot, 1<<bits), next: make([]int32, n)}
	// Pushing rows at the chain head in reverse leaves each chain ascending.
	for i := n - 1; i >= 0; i-- {
		s := x.slot(r.Data[i*r.W+c])
		s.key, x.next[i], s.head = r.Data[i*r.W+c], s.head, int32(i+1)
	}
	return x
}

// slot returns k's slot: the one holding it, or the empty one it would take
// (load stays at or below one half, so an empty slot always ends the walk).
func (x *JoinIndex) slot(k uint64) *joinSlot {
	for i := k * 0x9E3779B97F4A7C15 >> x.shift; ; i = (i + 1) & uint64(len(x.slots)-1) {
		if s := &x.slots[i]; s.head == 0 || s.key == k {
			return s
		}
	}
}

// First returns the first build row whose key is k, or -1.
func (x *JoinIndex) First(k uint64) int { return int(x.slot(k).head) - 1 }

// Next returns the build row after i with the same key, or -1.
func (x *JoinIndex) Next(i int) int { return int(x.next[i]) - 1 }

// String renders a compact preview for debugging.
func (r *Rel) String() string {
	n := r.Len()
	s := fmt.Sprintf("rel(w=%d,n=%d)", r.W, n)
	if n > 6 {
		n = 6
	}
	for i := 0; i < n; i++ {
		s += fmt.Sprintf(" %v", r.Row(i))
	}
	return s
}
