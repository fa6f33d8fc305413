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
	ops     PhysicalOps
	cat     Catalog
	cluster rdf.Order
	table   *colstore.Table
	// s, p, o are the physical column indices of the logical attributes.
	s, p, o int
}

// LoadColTriple lays the graph out in cluster key order, sorts it
// (rel.SortKeys) and loads the three columns with the leading one first
// (so the engine detects and compresses it).
func LoadColTriple(eng *colstore.Engine, g *rdf.Graph, cat Catalog, cluster rdf.Order) (*ColTriple, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	rows := rel.NewCap(3, len(g.Triples))
	for _, t := range g.Triples {
		a, b, c := cluster.Key(t)
		rows.Data = append(rows.Data, uint64(a), uint64(b), uint64(c))
	}
	rows.SortKeys(3, nil)
	table, err := eng.CreateTable("triples", rows, true)
	if err != nil {
		return nil, err
	}
	d := &ColTriple{eng: eng, ops: colOps(eng), cat: cat, cluster: cluster, table: table}
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
	return runQuery(d, q)
}

// ScanProp implements PhysicalSource: StreamProp, collected.
func (d *ColTriple) ScanProp(p, s, o rdf.ID, need ScanCols) (*rel.Rel, error) {
	return collectProp(d, p, s, o, need)
}

// Cat implements PhysicalSource.
func (d *ColTriple) Cat() Catalog { return d.cat }

// Props implements PhysicalSource: the triples table answers any property.
func (d *ColTriple) Props() []rdf.ID { return d.cat.AllProps }

// PropOrdered implements PhysicalSource. Only the clustering's leading
// column is physically ordered, so the executor must not rely on
// subject order.
func (d *ColTriple) PropOrdered() bool { return false }

// PropSeekable implements PhysicalSource: a bound subject selects over the
// property's whole run.
func (d *ColTriple) PropSeekable() bool { return false }

// Partitioned implements PhysicalSource.
func (d *ColTriple) Partitioned() bool { return false }

// Ops implements PhysicalSource.
func (d *ColTriple) Ops() PhysicalOps { return d.ops }
