package core

import (
	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// ColTriple is the triple-store scheme on the column-store engine: a single
// triples table stored as three columns, physically ordered by the chosen
// clustering ("With MonetDB/SQL, we realize the PSO-clustering by sorting
// the triples table on (property, subject, object)"). The leading column of
// the clustering is sorted and RLE-compressed. The file contains only the
// physical access layer; all query logic lives in the shared plan executor.
type ColTriple struct {
	eng     *colstore.Engine
	cat     Catalog
	cluster rdf.Order
	table   *colstore.Table
	// s, p, o are the physical column indices of the logical attributes.
	s, p, o int
}

// LoadColTriple sorts the graph by cluster and loads the three columns with
// the leading one first (so the engine detects and compresses it).
func LoadColTriple(eng *colstore.Engine, g *rdf.Graph, cat Catalog, cluster rdf.Order) (*ColTriple, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	ts := append([]rdf.Triple(nil), g.Triples...)
	cluster.Sort(ts)
	rows := rel.NewCap(3, len(ts))
	for _, t := range ts {
		a, b, c := cluster.Key(t)
		rows.Data = append(rows.Data, uint64(a), uint64(b), uint64(c))
	}
	table, err := eng.CreateTable("triples", rows, true)
	if err != nil {
		return nil, err
	}
	d := &ColTriple{eng: eng, cat: cat, cluster: cluster, table: table}
	// Physical layout is the permuted key order; recover logical slots.
	probe := cluster.Triple(10, 20, 30)
	lookup := map[rdf.ID]int{10: 0, 20: 1, 30: 2}
	d.s, d.p, d.o = lookup[probe.S], lookup[probe.P], lookup[probe.O]
	return d, nil
}

// Label implements Database.
func (d *ColTriple) Label() string { return "MonetDB/triple-" + d.cluster.String() }

func (d *ColTriple) colS() *colstore.Column { return d.table.Cols[d.s] }
func (d *ColTriple) colP() *colstore.Column { return d.table.Cols[d.p] }
func (d *ColTriple) colO() *colstore.Column { return d.table.Cols[d.o] }

// Run implements Database by executing the query's declarative plan.
func (d *ColTriple) Run(q Query) (*rel.Rel, error) {
	return Execute(d, q)
}

// selectPos computes the position list matching the bound positions, using
// the most selective leading column available (a free binary-search range
// on the clustering's sorted leading column).
func (d *ColTriple) selectPos(s, p, o rdf.ID) []int32 {
	var pos []int32
	switch {
	case p != rdf.NoID:
		pos = d.eng.SelectEq(d.colP(), uint64(p))
		if s != rdf.NoID {
			pos = d.eng.SelectEqAt(d.colS(), uint64(s), pos)
		}
		if o != rdf.NoID {
			pos = d.eng.SelectEqAt(d.colO(), uint64(o), pos)
		}
	case s != rdf.NoID:
		pos = d.eng.SelectEq(d.colS(), uint64(s))
		if o != rdf.NoID {
			pos = d.eng.SelectEqAt(d.colO(), uint64(o), pos)
		}
	case o != rdf.NoID:
		pos = d.eng.SelectEq(d.colO(), uint64(o))
	default:
		n := d.table.Rows()
		pos = make([]int32, n)
		for i := range pos {
			pos[i] = int32(i)
		}
	}
	return pos
}

// Match implements TripleSource: select positions, then late-materialize
// all three columns.
func (d *ColTriple) Match(s, p, o rdf.ID) *rel.Rel {
	return d.scanMasked(s, p, o, AllScanCols())
}

// scanMasked selects positions and materializes only the needed columns;
// bound positions are filled from their constants without a fetch.
func (d *ColTriple) scanMasked(s, p, o rdf.ID, need ScanCols) *rel.Rel {
	pos := d.selectPos(s, p, o)
	sv := fetchIfNeeded(d.eng, d.colS(), pos, s, need.S)
	pv := fetchIfNeeded(d.eng, d.colP(), pos, p, need.P)
	ov := fetchIfNeeded(d.eng, d.colO(), pos, o, need.O)
	out := rel.NewCap(3, len(pos))
	at := func(v []uint64, i int) uint64 {
		if v == nil {
			return 0
		}
		return v[i]
	}
	for i := range pos {
		out.Data = append(out.Data, at(sv, i), at(pv, i), at(ov, i))
	}
	return out
}

// ScanTriples implements PhysicalSource: the unbound-property scan with
// late materialization — only the demanded columns are fetched, as the
// hand-written column-at-a-time plans did.
func (d *ColTriple) ScanTriples(s, o rdf.ID, need ScanCols) *rel.Rel {
	return d.scanMasked(s, rdf.NoID, o, need)
}

// ScanProp implements PhysicalSource: a positional selection that
// materializes only the columns the plan demands (bound positions are
// already known and never re-fetched) — the late materialization the
// hand-written column-at-a-time plans relied on.
func (d *ColTriple) ScanProp(p, s, o rdf.ID, need ScanCols) (*rel.Rel, error) {
	pos := d.selectPos(s, p, o)
	sv := fetchIfNeeded(d.eng, d.colS(), pos, s, need.S)
	ov := fetchIfNeeded(d.eng, d.colO(), pos, o, need.O)
	return zipSO(sv, ov, len(pos)), nil
}

// fetchIfNeeded materializes a column at the given positions, unless the
// plan does not demand it or the position is bound to a constant (whose
// value is already known from the predicate — no fetch required).
func fetchIfNeeded(eng *colstore.Engine, c *colstore.Column, pos []int32, bound rdf.ID, needed bool) []uint64 {
	if !needed {
		return nil
	}
	if bound != rdf.NoID {
		out := make([]uint64, len(pos))
		for i := range out {
			out[i] = uint64(bound)
		}
		return out
	}
	return eng.Fetch(c, pos)
}

// zipSO interleaves two optionally-materialized column vectors into a
// width-2 relation; a nil vector reads as zero (the executor never looks
// at columns it did not demand).
func zipSO(sv, ov []uint64, n int) *rel.Rel {
	out := rel.NewCap(2, n)
	for i := 0; i < n; i++ {
		var a, b uint64
		if sv != nil {
			a = sv[i]
		}
		if ov != nil {
			b = ov[i]
		}
		out.Data = append(out.Data, a, b)
	}
	return out
}

// Cat implements PhysicalSource.
func (d *ColTriple) Cat() Catalog { return d.cat }

// Props implements PhysicalSource: the triples table answers any property.
func (d *ColTriple) Props() []rdf.ID { return d.cat.AllProps }

// PropOrdered implements PhysicalSource. Only the clustering's leading
// column is physically ordered, so the executor must not rely on
// subject order.
func (d *ColTriple) PropOrdered() bool { return false }

// Partitioned implements PhysicalSource.
func (d *ColTriple) Partitioned() bool { return false }

// Ops implements PhysicalSource.
func (d *ColTriple) Ops() PhysicalOps { return colstore.Relational{E: d.eng} }
