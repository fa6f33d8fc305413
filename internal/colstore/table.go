package colstore

import (
	"fmt"

	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

// The column store's CPU model in baseline nanoseconds per value.
// Vectorized execution amortizes interpretation over whole columns, hence
// the ~order-of-magnitude gap to the row store's per-tuple rates. The
// engine's own scans, seeks and vector hash join charge these; Rates
// composes the executor's operator classes from them.
const (
	selectValue  = 6     // test one value in a selection scan
	fetchValue   = 5     // materialize one value through a position list
	hashBuild    = 18    // insert one key into a hash table
	hashProbe    = 14    // probe one key against a hash table
	binarySearch = 600   // one binary search on a sorted column
	nodeStartup  = 4_000 // dispatch one algebra operator
)

// Rates is the column store's price list for the executor's operator
// classes, each priced as its decomposition into the vector primitives: a
// join or merge extracts its key by positional fetch, and a union, a
// group's keys, a join's output and a finished row move value by value.
var Rates = simio.Rates{
	simio.OpNode:      {Row: nodeStartup},
	simio.OpFilter:    {Row: selectValue}, // one test a row, whatever its width
	simio.OpHashBuild: {Row: fetchValue + hashBuild},
	simio.OpHashProbe: {Row: fetchValue + hashProbe},
	simio.OpMerge:     {Row: fetchValue + selectValue},
	simio.OpUnion:     {Value: 8},
	// Rows of up to three values take the fixed-key path; wider rows hash
	// value by value.
	simio.OpDistinct: {Value: 14, Narrow: 4},
	simio.OpRestrict: {Row: selectValue}, // a set-membership filter
	// Per grouping key: one fetch plus one group-table update.
	simio.OpGroup:    {Value: fetchValue + 16},
	simio.OpJoinEmit: {Value: fetchValue},
	simio.OpEmit:     {Value: fetchValue},
	simio.OpSort:     {Row: 7},
}

// Table is a set of equally long columns. The leading sort column (if any)
// is marked Sorted and stored compressed.
type Table struct {
	Name string
	Cols []*Column
	rows int
}

// Rows returns the table's cardinality.
func (t *Table) Rows() int { return t.rows }

// SizeBytes returns the combined on-disk footprint of all columns.
func (t *Table) SizeBytes() int64 {
	var n int64
	for _, c := range t.Cols {
		n += c.DiskBytes()
	}
	return n
}

// Engine is one column-store instance bound to a simulated store.
type Engine struct {
	Store *simio.Store
	// PageAtATime selects the C-Store I/O profile: every column access
	// becomes synchronous page-granular reads.
	PageAtATime bool
	tables      map[string]*Table
}

// NewEngine returns an empty column store.
func NewEngine(store *simio.Store) *Engine {
	return &Engine{Store: store, tables: make(map[string]*Table)}
}

// ChargeNode charges one operator dispatch.
func (e *Engine) ChargeNode() { e.Store.ChargeCPU(nodeStartup) }

// CreateTable loads rows into a new table. Rows must already be sorted in
// the intended clustering order; column 0 of the stored layout is the
// leading sort column and is compressed. Loading charges no time (it is
// outside the benchmark window).
func (e *Engine) CreateTable(name string, rows *rel.Rel, compress bool) (*Table, error) {
	if _, dup := e.tables[name]; dup {
		return nil, fmt.Errorf("colstore: table %q already exists", name)
	}
	if rows.W < 1 {
		return nil, fmt.Errorf("colstore: table %q needs at least one column", name)
	}
	t := &Table{Name: name, rows: rows.Len()}
	for ci := 0; ci < rows.W; ci++ {
		vals := rows.Col(ci)
		sorted := ci == 0 && isSorted(vals)
		col := newColumn(e.Store, fmt.Sprintf("%s.col%d", name, ci), vals, sorted, compress, e.PageAtATime)
		t.Cols = append(t.Cols, col)
	}
	e.tables[name] = t
	return t, nil
}

func isSorted(v []uint64) bool {
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			return false
		}
	}
	return true
}

// Table returns a table by name.
func (e *Engine) Table(name string) (*Table, error) {
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("colstore: no table %q", name)
	}
	return t, nil
}

// MustTable is Table for statically known schemas.
func (e *Engine) MustTable(name string) *Table {
	t, err := e.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// HasTable reports whether name exists.
func (e *Engine) HasTable(name string) bool {
	_, ok := e.tables[name]
	return ok
}

// Tables returns the catalog size.
func (e *Engine) Tables() int { return len(e.tables) }

// TotalBytes returns the database footprint.
func (e *Engine) TotalBytes() int64 {
	var n int64
	for _, t := range e.tables {
		n += t.SizeBytes()
	}
	return n
}
