package core

import (
	"fmt"

	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// ColVert is the vertically-partitioned scheme on the column-store engine:
// one two-column (subject, object) table per property, sorted on SO, with
// the subject column compressed — the "MonetDB vert SO" rows of Tables 6
// and 7 and (under the PageAtATime engine profile, restricted to the 28
// interesting properties) the C-Store configuration of Section 3. The file
// contains only the physical access layer; all query logic lives in the
// shared plan executor.
type ColVert struct {
	eng    *colstore.Engine
	ops    PhysicalOps
	cat    Catalog
	tables map[rdf.ID]*colstore.Table
	// loaded is the property list actually materialized (all properties
	// for MonetDB, the 28 interesting ones for the C-Store profile).
	loaded []rdf.ID
	label  string
}

// LoadColVert loads one table per property in cat.AllProps.
func LoadColVert(eng *colstore.Engine, g *rdf.Graph, cat Catalog) (*ColVert, error) {
	return loadColVert(eng, g, cat, cat.AllProps, "MonetDB/vert-SO", nil)
}

// LoadColVertParts is LoadColVert with a prebuilt per-property partition
// (see PartitionByProp), shared with the other loaders by the bulk-ingest
// path. The shared slices are copied before sorting, so the partition
// survives concurrent loads. A nil parts map partitions here.
func LoadColVertParts(eng *colstore.Engine, g *rdf.Graph, cat Catalog, parts map[rdf.ID][]rdf.Triple) (*ColVert, error) {
	return loadColVert(eng, g, cat, cat.AllProps, "MonetDB/vert-SO", parts)
}

// LoadColVertRestricted loads only the interesting properties, as the
// original C-Store experiment did ("C-Store is loaded with data associated
// with 28 properties, hence the small size").
func LoadColVertRestricted(eng *colstore.Engine, g *rdf.Graph, cat Catalog) (*ColVert, error) {
	return loadColVert(eng, g, cat, cat.Interesting, "C-Store/vert-SO", nil)
}

func loadColVert(eng *colstore.Engine, g *rdf.Graph, cat Catalog, props []rdf.ID, label string, shared map[rdf.ID][]rdf.Triple) (*ColVert, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	want := make(map[rdf.ID]bool, len(props))
	for _, p := range props {
		want[p] = true
	}
	// Partition each table's triples; sorting happens per table below. A
	// shared partition is borrowed (copy-on-sort), a local one is owned.
	parts := make(map[rdf.ID][]rdf.Triple)
	if shared != nil {
		for _, p := range props {
			// Copy: the shared slices are order-contracted views other
			// loaders read concurrently.
			parts[p] = append([]rdf.Triple(nil), shared[p]...)
		}
	} else {
		for _, t := range g.Triples {
			if want[t.P] {
				parts[t.P] = append(parts[t.P], t)
			}
		}
	}
	d := &ColVert{eng: eng, ops: colOps(eng), cat: cat, tables: make(map[rdf.ID]*colstore.Table, len(props)), loaded: props, label: label}
	for _, p := range props {
		ts := parts[p]
		rdf.SOP.Sort(ts) // SO order; the trailing P is constant
		rows := rel.NewCap(2, len(ts))
		for _, t := range ts {
			rows.Data = append(rows.Data, uint64(t.S), uint64(t.O))
		}
		tb, err := eng.CreateTable(fmt.Sprintf("prop_%d", p), rows, true)
		if err != nil {
			return nil, err
		}
		d.tables[p] = tb
	}
	return d, nil
}

// Label implements Database.
func (d *ColVert) Label() string { return d.label }

// Run implements Database by executing the query's declarative plan.
func (d *ColVert) Run(q Query) (*rel.Rel, error) {
	return runQuery(d, q)
}

// Match implements TripleSource: the pull scan, collected.
func (d *ColVert) Match(s, p, o rdf.ID) *rel.Rel { return collectMatch(d, s, p, o) }

// ScanProp implements PhysicalSource: StreamProp, collected.
func (d *ColVert) ScanProp(p, s, o rdf.ID, need ScanCols) (*rel.Rel, error) {
	return collectProp(d, p, s, o, need)
}

// Cat implements PhysicalSource.
func (d *ColVert) Cat() Catalog { return d.cat }

// Props implements PhysicalSource: only the materialized tables.
func (d *ColVert) Props() []rdf.ID { return d.loaded }

// PropOrdered implements PhysicalSource: SO-sorted tables return every
// per-property scan ordered on its first unbound position — the property
// behind the paper's "fewer unions and fast joins" quote.
func (d *ColVert) PropOrdered() bool { return true }

// PropSeekable implements PhysicalSource: the subject column is sorted.
func (d *ColVert) PropSeekable() bool { return true }

// Partitioned implements PhysicalSource.
func (d *ColVert) Partitioned() bool { return true }

// Ops implements PhysicalSource.
func (d *ColVert) Ops() PhysicalOps { return d.ops }
