package core

import (
	"fmt"
	"slices"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
)

// Column positions of the triples table.
const (
	colS = 0
	colP = 1
	colO = 2
)

// OrderPerm converts an rdf key order into the row-store permutation whose
// key field j is the corresponding triple column.
func OrderPerm(o rdf.Order) rowstore.Perm {
	switch o {
	case rdf.SPO:
		return rowstore.Perm{colS, colP, colO}
	case rdf.SOP:
		return rowstore.Perm{colS, colO, colP}
	case rdf.PSO:
		return rowstore.Perm{colP, colS, colO}
	case rdf.POS:
		return rowstore.Perm{colP, colO, colS}
	case rdf.OSP:
		return rowstore.Perm{colO, colS, colP}
	case rdf.OPS:
		return rowstore.Perm{colO, colP, colS}
	default:
		panic(fmt.Sprintf("core: invalid order %v", o))
	}
}

// RowTriple is the triple-store scheme on the row-store engine: one
// triples(subj, prop, obj) table with a clustered B+tree on the chosen
// permutation and covering secondary indices on the others — the "DBX
// triple" rows of Tables 6 and 7. The file contains only the physical
// access layer; all query logic lives in the shared plan executor.
type RowTriple struct {
	eng     *rowstore.Engine
	ops     PhysicalOps
	cat     Catalog
	cluster rdf.Order
	triples *rowstore.Table
}

// LoadRowTriple builds the scheme. cluster selects the clustered index
// order (the paper compares SPO, the original choice, against PSO);
// secondaries lists additional covering index orders (the paper gives DBX
// "five more un-clustered B+tree indices on all other permutations").
func LoadRowTriple(eng *rowstore.Engine, g *rdf.Graph, cat Catalog, cluster rdf.Order, secondaries []rdf.Order) (*RowTriple, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	secs := make([]rowstore.Perm, 0, len(secondaries))
	for _, o := range secondaries {
		if o == cluster {
			continue
		}
		secs = append(secs, OrderPerm(o))
	}
	triples, err := eng.CreateTable(rowstore.TableSpec{
		Name: "triples", Width: 3,
		Clustered: OrderPerm(cluster), Secondary: secs,
		PrefixCompress: true,
	}, triplesRel(g))
	if err != nil {
		return nil, err
	}
	// The "properties" side table holding the administrator's 28 selected
	// properties, joined against q2/q3/q4/q6 in the paper. It is part of the
	// scheme's stored footprint; the executor charges that join per probed
	// row (at the engine's OpRestrict rate) against the catalog's copy of the
	// same list.
	if _, err := eng.CreateTable(rowstore.TableSpec{
		Name: "properties", Width: 1, Clustered: rowstore.Perm{0},
	}, idsRel(cat.Interesting)); err != nil {
		return nil, err
	}
	return &RowTriple{eng: eng, ops: rowOps(eng), cat: cat, cluster: cluster, triples: triples}, nil
}

// Label implements Database.
func (d *RowTriple) Label() string { return "DBX/triple-" + d.cluster.String() }

// Run implements Database by executing the query's declarative plan.
func (d *RowTriple) Run(q Query) (*rel.Rel, error) {
	return runQuery(d, q)
}

// Match implements TripleSource: the pull scan, collected.
func (d *RowTriple) Match(s, p, o rdf.ID) *rel.Rel { return collectMatch(d, s, p, o) }

// ScanProp implements PhysicalSource: StreamProp, collected.
func (d *RowTriple) ScanProp(p, s, o rdf.ID, need ScanCols) (*rel.Rel, error) {
	return collectProp(d, p, s, o, need)
}

// Cat implements PhysicalSource.
func (d *RowTriple) Cat() Catalog { return d.cat }

// Props implements PhysicalSource: the triples table answers any property.
func (d *RowTriple) Props() []rdf.ID { return d.cat.AllProps }

// PropOrdered implements PhysicalSource. Row order depends on which index
// the optimizer chose, so the executor must not rely on it.
func (d *RowTriple) PropOrdered() bool { return false }

// PropSeekable implements PhysicalSource: true if an index keys o last.
func (d *RowTriple) PropSeekable() bool {
	return slices.ContainsFunc(d.triples.Indices(), func(ix *rowstore.Index) bool { return ix.Perm[2] == colO })
}

// Partitioned implements PhysicalSource.
func (d *RowTriple) Partitioned() bool { return false }

// Ops implements PhysicalSource.
func (d *RowTriple) Ops() PhysicalOps { return d.ops }
