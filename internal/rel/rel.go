// Package rel provides the flat tuple representation shared by the two
// engines: a relation is a row-packed []uint64 with a fixed width. Both the
// row-store's Volcano operators and the column-store's vector operators
// produce Rel values, so the benchmark harness and the result-correctness
// tests can compare engines directly.
package rel

import (
	"fmt"
	"math/bits"
	"slices"
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

// Grow makes room for n more values by doubling (append's 1.25× steps cost 5×).
func (r *Rel) Grow(n int) {
	if len(r.Data)+n > cap(r.Data) {
		r.Data = append(make([]uint64, 0, max(2*cap(r.Data), len(r.Data)+n)), r.Data...)
	}
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

// Table is the executor's one hash table: open addressing, at most half
// full, keyed on k consecutive words of a row. A slot is a row number +1
// (0: empty) under the low half of the key's last word, deciding alone while
// keys are one word below 2³². Its rows are a join's build side (JoinIndex)
// or entries Add appends in order: group rows, the rows a distinct keeps.
type Table struct {
	Rel
	off, k int  // a row's key is its words [off, off+k)
	narrow bool // k is 1 and every key is below 2³²: the slot decides
	shift  uint // 64 − log₂ len(slots): the hash's top bits pick the home slot
	slots  []uint64
}

// NewTable returns an empty table of width-w entries keyed on k words.
func NewTable(w, k int) *Table {
	return &Table{Rel: *NewCap(w, 8), k: k, narrow: k == 1, shift: 60, slots: make([]uint64, 16)}
}

// find returns key's slot, or the empty one ending its walk, and the high
// half of a slot holding key.
func (t *Table) find(key []uint64) (*uint64, uint64) {
	mask, tag := uint64(len(t.slots)-1), key[len(key)-1]<<32
	if t.narrow && key[0]>>32 == 0 {
		for i := key[0] * 0x9E3779B97F4A7C15 >> t.shift; ; i = (i + 1) & mask {
			if s := &t.slots[i]; *s == 0 || *s&^(1<<32-1) == tag {
				return s, tag
			}
		}
	}
	var h uint64
	for _, v := range key {
		h = (bits.RotateLeft64(h, 29) ^ v) * 0x9E3779B97F4A7C15
	}
	for i := h >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if *s == 0 || *s&^(1<<32-1) == tag && slices.Equal(t.Data[int(uint32(*s)-1)*t.W+t.off:][:t.k], key) {
			return s, tag
		}
	}
}

// Add returns the row whose key is key, first appending one — key, then
// zeros: the capacity past the entries is never written — when there is
// none, and reports the append. Entries and slots grow by doubling.
func (t *Table) Add(key []uint64) (row int, added bool) {
	s, tag := t.find(key)
	if *s != 0 {
		return int(uint32(*s) - 1), false
	}
	row = t.Len()
	t.Grow(t.W)
	t.Data = append(t.Data, key...)[:(row+1)*t.W]
	*s, t.narrow = tag|uint64(row+1), t.narrow && key[0]>>32 == 0
	if 2*(row+1) > len(t.slots) {
		t.shift, t.slots = t.shift-1, make([]uint64, 2*len(t.slots))
		for i := 0; i <= row; i++ {
			s, tag := t.find(t.Data[i*t.W:][:t.k])
			*s = tag | uint64(i+1)
		}
	}
	return row, true
}

// Sorted orders the entries by key and returns them, spending the table:
// its slots are SortKeys' scratch.
func (t *Table) Sorted() *Rel {
	t.SortKeys(t.k, t.slots)
	t.slots = nil
	return &t.Rel
}

// JoinIndex is every hash join's table: a Table over the build rows keyed on
// one column, a key's rows chained in build order. A range filter rejects a
// key outside the build's [lo, hi] and, where the span is at most eight keys
// a slot (a bitmap ⅛ the slot array), one whose bit is clear. Read-only once
// built, so concurrent probes are safe.
type JoinIndex struct {
	tab      Table
	next     []int32
	lo, span uint64   // a present key k has k−lo ≤ span
	present  []uint64 // bit k−lo of every present key, or nil
}

// NewJoinIndex indexes column c of r.
func NewJoinIndex(r *Rel, c int) *JoinIndex {
	n := r.Len()
	b := bits.Len(uint(max(2*n-1, 1))) // at most half full
	x := &JoinIndex{tab: Table{Rel: *r, off: c, k: 1, shift: 64 - uint(b), slots: make([]uint64, 1<<b)}, next: make([]int32, n)}
	// Pushing rows at the chain head in reverse leaves each chain ascending.
	lo, hi := ^uint64(0), uint64(0)
	for i := n - 1; i >= 0; i-- {
		k := r.Data[i*r.W+c:][:1]
		s, tag := x.tab.find(k)
		x.next[i], *s = int32(uint32(*s)), tag|uint64(i+1)
		lo, hi = min(lo, k[0]), max(hi, k[0])
	}
	x.tab.narrow, x.lo, x.span = hi>>32 == 0, lo, hi-lo
	if x.span/64 < uint64(len(x.tab.slots)/8) {
		x.present = make([]uint64, x.span/64+1)
		for i := c; i < len(r.Data); i += r.W {
			d := r.Data[i] - lo
			x.present[d/64] |= 1 << (d % 64)
		}
	}
	return x
}

// First returns the first build row whose key is k, or -1.
func (x *JoinIndex) First(k uint64) int {
	d := k - x.lo
	if d > x.span || x.present != nil && x.present[d/64]&(1<<(d%64)) == 0 {
		return -1
	}
	s, _ := x.tab.find([]uint64{k})
	return int(uint32(*s)) - 1
}

// Next returns the build row after i with the same key, or -1.
func (x *JoinIndex) Next(i int) int { return int(x.next[i]) - 1 }

// SortKeys orders r's rows on their first k words by an LSD radix sort:
// one stable pass per 11-bit digit of a word up to its largest value's bit
// length (IDs below 2²² take two), last word first. Rows move between r's
// buffer and scratch (a fresh one if it is short); r keeps the one holding
// them last.
func (r *Rel) SortKeys(k int, scratch []uint64) {
	const radixBits = 11
	w, src, dst := r.W, r.Data, scratch
	if len(dst) < len(src) {
		dst = make([]uint64, len(src))
	}
	dst = dst[:len(src)]
	var at [1 << radixBits]int
	for c := k - 1; c >= 0; c-- {
		var or uint64
		for i := c; i < len(src); i += w {
			or |= src[i]
		}
		for s := 0; s < bits.Len64(or); s += radixBits {
			clear(at[:])
			for i := c; i < len(src); i += w {
				at[src[i]>>s&(1<<radixBits-1)]++
			}
			sum := 0
			for d, n := range at {
				at[d], sum = sum, sum+n*w
			}
			for i := 0; i < len(src); i += w {
				row := src[i : i+w : i+w]
				d := row[c] >> s & (1<<radixBits - 1)
				out := dst[at[d] : at[d]+w : at[d]+w]
				for j, v := range row { // an inline loop: copy's call costs more than a row
					out[j] = v
				}
				at[d] += w
			}
			src, dst = dst, src
		}
	}
	r.Data = src
}

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
