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
	"slices"

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
	for _, p := range spec.Secondary {
		if !p.valid(spec.Width) {
			return nil, fmt.Errorf("rowstore: invalid secondary permutation %v", p)
		}
	}
	perms := append([]Perm{spec.Clustered}, spec.Secondary...)
	keys := sortIndexKeys(perms, rows)
	t := &Table{Name: spec.Name, Width: spec.Width, Rows: rows.Len()}
	for i, p := range perms {
		kind := "ix"
		if i == 0 {
			kind = "clustered"
		}
		tr, err := btree.BulkLoad(e.Store, btree.Config{
			Name:           fmt.Sprintf("%s.%s.%s", spec.Name, kind, p),
			Width:          spec.Width,
			PrefixCompress: spec.PrefixCompress,
		}, keys[i])
		if err != nil {
			return nil, err
		}
		ix := &Index{Perm: p, Tree: tr, Clustered: i == 0}
		if i == 0 {
			t.Clustered = ix
		} else {
			t.Secondary = append(t.Secondary, ix)
		}
	}
	e.tables[spec.Name] = t
	return t, nil
}

// sortIndexKeys returns each permutation's keys, sorted, by rel.SortKeys.
// The first index sorts rows on every key field. Each further index is
// derived from one already sorted: keys sorted under from, permuted to to
// and stably sorted on to's first c fields are sorted under to when from,
// with those c columns removed, lists to's other columns in to's order
// (sortFields). PSO → SPO sorts one field, and so does SO → OS. The index
// with the fewest fields to sort is built next. One pair of buffers
// (len(rows.Data) words each) serves every sort; the key arrays are the
// fresh allocations, which the trees keep.
func sortIndexKeys(perms []Perm, rows *rel.Rel) [][]btree.Key {
	w := rows.W
	buf, scratch := make([]uint64, len(rows.Data)), make([]uint64, len(rows.Data))
	keys := make([][]btree.Key, len(perms))
	sortInto := func(i, fields int) {
		sorted := &rel.Rel{W: w, Data: buf}
		sorted.SortKeys(fields, scratch)
		keys[i] = make([]btree.Key, rows.Len())
		for r := range keys[i] {
			copy(keys[i][r][:w], sorted.Data[r*w:])
		}
	}
	for j, c := range perms[0] {
		for i := j; i < len(buf); i += w {
			buf[i] = rows.Data[i-j+c]
		}
	}
	sortInto(0, w)
	for built := 1; built < len(perms); built++ {
		to, from, fields := -1, -1, w+1
		for i := range perms {
			if keys[i] != nil {
				continue
			}
			for j := range perms {
				if keys[j] == nil {
					continue
				}
				if f := sortFields(perms[j], perms[i]); f < fields {
					to, from, fields = i, j, f
				}
			}
		}
		var pos [btree.MaxWidth]int // pos[col] is col's field in from's keys
		for f, col := range perms[from] {
			pos[col] = f
		}
		for r, k := range keys[from] {
			for j, col := range perms[to] {
				buf[r*w+j] = k[pos[col]]
			}
		}
		sortInto(to, fields)
	}
	return keys
}

// sortFields returns how many leading fields of to a stable sort must
// order, starting from keys sorted under from: the smallest c such that
// from without to's first c columns is to's remaining columns.
func sortFields(from, to Perm) int {
	for c := 0; c < len(to); c++ {
		rest := slices.DeleteFunc(slices.Clone(from), func(col int) bool { return slices.Contains(to[:c], col) })
		if slices.Equal(rest, to[c:]) {
			return c
		}
	}
	return len(to)
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
