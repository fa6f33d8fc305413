package core

import (
	"fmt"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
)

// Vertical-table column positions (subject, object).
const (
	vcS = 0
	vcO = 1
)

// RowVert is the vertically-partitioned scheme on the row-store engine: one
// two-column table per property, clustered on SO with an unclustered OS
// index — the "DBX vert SO" rows of Tables 6 and 7. The file contains only
// the physical access layer; all query logic lives in the shared plan
// executor, which lowers unbound-property accesses to the per-table unions
// the paper warns about.
type RowVert struct {
	eng    *rowstore.Engine
	ops    PhysicalOps
	cat    Catalog
	tables map[rdf.ID]*rowstore.Table
}

// LoadRowVert partitions the graph by property and loads one table each.
func LoadRowVert(eng *rowstore.Engine, g *rdf.Graph, cat Catalog) (*RowVert, error) {
	return LoadRowVertParts(eng, g, cat, nil)
}

// LoadRowVertParts is LoadRowVert with a prebuilt per-property partition
// (see PartitionByProp) — the bulk-ingest path computes the partition once,
// in parallel, and feeds it to both vertically-partitioned loaders. A nil
// parts map partitions here, sequentially.
func LoadRowVertParts(eng *rowstore.Engine, g *rdf.Graph, cat Catalog, parts map[rdf.ID][]rdf.Triple) (*RowVert, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	// Per-property (s, o) relations: converted from a shared partition
	// when the bulk-ingest path provides one, built in a single pass over
	// the graph otherwise.
	rels := make(map[rdf.ID]*rel.Rel)
	if parts != nil {
		for p, ts := range parts {
			rows := rel.NewCap(2, len(ts))
			for _, t := range ts {
				rows.Data = append(rows.Data, uint64(t.S), uint64(t.O))
			}
			rels[p] = rows
		}
	} else {
		for _, t := range g.Triples {
			r, ok := rels[t.P]
			if !ok {
				r = rel.New(2)
				rels[t.P] = r
			}
			r.Data = append(r.Data, uint64(t.S), uint64(t.O))
		}
	}
	d := &RowVert{eng: eng, ops: rowOps(eng), cat: cat, tables: make(map[rdf.ID]*rowstore.Table, len(rels))}
	for _, p := range cat.AllProps {
		rows, ok := rels[p]
		if !ok {
			return nil, fmt.Errorf("core: catalog property %d has no triples", p)
		}
		t, err := eng.CreateTable(rowstore.TableSpec{
			Name: fmt.Sprintf("prop_%d", p), Width: 2,
			Clustered:      rowstore.Perm{vcS, vcO},
			Secondary:      []rowstore.Perm{{vcO, vcS}},
			PrefixCompress: true,
		}, rows)
		if err != nil {
			return nil, err
		}
		d.tables[p] = t
	}
	return d, nil
}

// Label implements Database.
func (d *RowVert) Label() string { return "DBX/vert-SO" }

// Run implements Database by executing the query's declarative plan.
func (d *RowVert) Run(q Query) (*rel.Rel, error) {
	return runQuery(d, q)
}

// Match implements TripleSource: the pull scan, collected.
func (d *RowVert) Match(s, p, o rdf.ID) *rel.Rel { return collectMatch(d, s, p, o) }

// ScanProp implements PhysicalSource: StreamProp, collected.
func (d *RowVert) ScanProp(p, s, o rdf.ID, need ScanCols) (*rel.Rel, error) {
	return collectProp(d, p, s, o, need)
}

// Cat implements PhysicalSource.
func (d *RowVert) Cat() Catalog { return d.cat }

// Props implements PhysicalSource.
func (d *RowVert) Props() []rdf.ID { return d.cat.AllProps }

// PropOrdered implements PhysicalSource: SO clustering returns every
// per-property scan ordered on its first unbound position, which is what
// licenses the linear merge joins the paper credits the scheme with.
func (d *RowVert) PropOrdered() bool { return true }

// PropSeekable implements PhysicalSource: every table is clustered SO.
func (d *RowVert) PropSeekable() bool { return true }

// Partitioned implements PhysicalSource.
func (d *RowVert) Partitioned() bool { return true }

// Ops implements PhysicalSource.
func (d *RowVert) Ops() PhysicalOps { return d.ops }
