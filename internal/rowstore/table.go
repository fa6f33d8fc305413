// Package rowstore implements the commercial row-store stand-in the paper
// calls DBX: tables stored in clustered B+trees, covering secondary indices
// on arbitrary column permutations, an access-path picker that prefers the
// longest usable index prefix, and a tuple-at-a-time executor.
//
// Its defining performance traits, all of which the paper's row-store
// analysis relies on, are produced mechanically rather than hard-coded:
//
//   - clustering choice matters: a scan with a bound property on a
//     PSO-clustered triples table touches only the qualifying leaf range,
//     while SPO clustering forces a full scan or an unclustered index;
//   - key-prefix compression makes the sorted leading column nearly free;
//   - every table/index access pays a B+tree descent (random page reads),
//     which is what makes 222-table vertically-partitioned plans expensive;
//   - tuple-at-a-time interpretation costs roughly an order of magnitude
//     more CPU per value than the column-store's vector operators.
package rowstore

import (
	"fmt"

	"blackswan/internal/btree"
	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

// Perm maps key positions to row columns: key field j holds row[Perm[j]].
// A table of width w uses permutations of {0..w-1}.
type Perm []int

// String renders e.g. [1 0 2] as "102".
func (p Perm) String() string {
	s := ""
	for _, c := range p {
		s += fmt.Sprintf("%d", c)
	}
	return s
}

// valid reports whether p is a permutation of {0..w-1}.
func (p Perm) valid(w int) bool {
	if len(p) != w {
		return false
	}
	seen := make([]bool, w)
	for _, c := range p {
		if c < 0 || c >= w || seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// Index is one B+tree over a table, clustered or secondary. All indices are
// covering: the key contains every column, permuted.
type Index struct {
	Perm      Perm
	Tree      *btree.Tree
	Clustered bool
}

// Table is a base relation with one clustered index and any number of
// covering secondary indices.
type Table struct {
	Name      string
	Width     int
	Rows      int
	Clustered *Index
	Secondary []*Index
}

// Indices returns all indices, clustered first.
func (t *Table) Indices() []*Index {
	out := make([]*Index, 0, 1+len(t.Secondary))
	out = append(out, t.Clustered)
	out = append(out, t.Secondary...)
	return out
}

// SizeBytes returns the on-disk footprint of the table and all its indices.
func (t *Table) SizeBytes() int64 {
	var n int64
	for _, ix := range t.Indices() {
		n += ix.Tree.SizeBytes()
	}
	return n
}

// Engine is one row-store database instance bound to a simulated store.
type Engine struct {
	Store  *simio.Store
	tables map[string]*Table
}

// NewEngine returns an empty database on store.
func NewEngine(store *simio.Store) *Engine {
	return &Engine{Store: store, tables: make(map[string]*Table)}
}

// TableSpec describes a table to create.
type TableSpec struct {
	Name string
	// Width is the column count (1..3).
	Width int
	// Clustered is the clustered key permutation.
	Clustered Perm
	// Secondary lists additional covering index permutations.
	Secondary []Perm
	// PrefixCompress enables key-prefix compression on all indices, as
	// "mature B+tree implementations" do (Section 4.1).
	PrefixCompress bool
}

// CreateTable bulk-loads rows into a new table. Loading is outside the
// benchmark's measured window, so it charges no time.
func (e *Engine) CreateTable(spec TableSpec, rows *rel.Rel) (*Table, error) {
	if _, dup := e.tables[spec.Name]; dup {
		return nil, fmt.Errorf("rowstore: table %q already exists", spec.Name)
	}
	if spec.Width < 1 || spec.Width > btree.MaxWidth {
		return nil, fmt.Errorf("rowstore: width %d out of range", spec.Width)
	}
	if rows.W != spec.Width {
		return nil, fmt.Errorf("rowstore: rows width %d != table width %d", rows.W, spec.Width)
	}
	if !spec.Clustered.valid(spec.Width) {
		return nil, fmt.Errorf("rowstore: invalid clustered permutation %v", spec.Clustered)
	}
	t := &Table{Name: spec.Name, Width: spec.Width, Rows: rows.Len()}
	var err error
	t.Clustered, err = e.buildIndex(spec.Name, spec.Clustered, true, spec.PrefixCompress, rows)
	if err != nil {
		return nil, err
	}
	for _, p := range spec.Secondary {
		if !p.valid(spec.Width) {
			return nil, fmt.Errorf("rowstore: invalid secondary permutation %v", p)
		}
		ix, err := e.buildIndex(spec.Name, p, false, spec.PrefixCompress, rows)
		if err != nil {
			return nil, err
		}
		t.Secondary = append(t.Secondary, ix)
	}
	e.tables[spec.Name] = t
	return t, nil
}

// buildIndex sorts rows under the permutation and bulk-loads a tree.
func (e *Engine) buildIndex(table string, p Perm, clustered, compress bool, rows *rel.Rel) (*Index, error) {
	w := rows.W
	keys := make([]btree.Key, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		row := rows.Row(i)
		var k btree.Key
		for j := 0; j < w; j++ {
			k[j] = row[p[j]]
		}
		keys[i] = k
	}
	sortKeys(keys, w)
	kind := "ix"
	if clustered {
		kind = "clustered"
	}
	tr, err := btree.BulkLoad(e.Store, btree.Config{
		Name:           fmt.Sprintf("%s.%s.%s", table, kind, p),
		Width:          w,
		PrefixCompress: compress,
	}, keys)
	if err != nil {
		return nil, err
	}
	return &Index{Perm: p, Tree: tr, Clustered: clustered}, nil
}

// sortKeys sorts in place under Compare with width w.
func sortKeys(keys []btree.Key, w int) {
	quickSortKeys(keys, w, 0, len(keys)-1)
}

// quickSortKeys is a median-of-three quicksort; sort.Slice on btree.Key
// closures is measurably slower during bulk load of millions of keys.
func quickSortKeys(keys []btree.Key, w, lo, hi int) {
	for lo < hi {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && btree.Compare(keys[j], keys[j-1], w) < 0; j-- {
					keys[j], keys[j-1] = keys[j-1], keys[j]
				}
			}
			return
		}
		mid := lo + (hi-lo)/2
		if btree.Compare(keys[mid], keys[lo], w) < 0 {
			keys[mid], keys[lo] = keys[lo], keys[mid]
		}
		if btree.Compare(keys[hi], keys[lo], w) < 0 {
			keys[hi], keys[lo] = keys[lo], keys[hi]
		}
		if btree.Compare(keys[hi], keys[mid], w) < 0 {
			keys[hi], keys[mid] = keys[mid], keys[hi]
		}
		pivot := keys[mid]
		i, j := lo, hi
		for i <= j {
			for btree.Compare(keys[i], pivot, w) < 0 {
				i++
			}
			for btree.Compare(keys[j], pivot, w) > 0 {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSortKeys(keys, w, lo, j)
			lo = i
		} else {
			quickSortKeys(keys, w, i, hi)
			hi = j
		}
	}
}

// Table returns a table by name, or an error if absent.
func (e *Engine) Table(name string) (*Table, error) {
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("rowstore: no table %q", name)
	}
	return t, nil
}

// MustTable is Table for callers that know the schema statically.
func (e *Engine) MustTable(name string) *Table {
	t, err := e.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// HasTable reports whether a table exists.
func (e *Engine) HasTable(name string) bool {
	_, ok := e.tables[name]
	return ok
}

// Tables returns the number of tables in the catalog.
func (e *Engine) Tables() int { return len(e.tables) }

// TotalBytes returns the database footprint across all tables and indices.
func (e *Engine) TotalBytes() int64 {
	var n int64
	for _, t := range e.tables {
		n += t.SizeBytes()
	}
	return n
}
