package core

import (
	"fmt"

	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// This file implements the pull half of PhysicalSource for the four storage
// schemes: each scheme's bulk ScanProp/ScanTriples is re-expressed as a pull
// iterator that delivers the same rows in the same order with the same
// access-path charges, paid batch by batch instead of up front — so a
// consumer that terminates early (LIMIT, TopN, an exhausted join build)
// saves the simulated CPU and I/O of the unread tail.

// cursorIter adapts an engine's pull cursor (rowstore.ScanCursor,
// colstore.ColScan) to the executor's RelIter. The cursor refills the one
// buffer the adapter lends it: out, which the executor supplies
// from its free list and takes back at close (see streamer.source).
type cursorIter struct {
	cur interface{ Next(out *rel.Rel) bool }
	out *rel.Rel
}

func (it *cursorIter) Next() (*rel.Rel, error) {
	if it.out == nil {
		it.out = new(rel.Rel)
	}
	reuse(it.out)
	if !it.cur.Next(it.out) {
		return nil, nil
	}
	return it.out, nil
}

// Close implements RelIter: an abandoned cursor holds no resources and
// simply stops charging.
func (it *cursorIter) Close() {}

// chunkRelIter is the scan-then-chunk fallback for scheme paths the
// executor never exercises (Partitioned schemes answer unbound properties
// through the per-property fan-out, not StreamTriples).
type chunkRelIter struct {
	rel   *rel.Rel
	batch int
	cur   int
	view  rel.Rel
}

func (c *chunkRelIter) Next() (*rel.Rel, error) {
	n := c.rel.Len()
	if c.cur >= n {
		return nil, nil
	}
	hi := c.cur + c.batch
	if hi > n {
		hi = n
	}
	c.view = rel.Rel{W: c.rel.W, Data: c.rel.Data[c.cur*c.rel.W : hi*c.rel.W]}
	c.cur = hi
	return &c.view, nil
}

func (c *chunkRelIter) Close() {}

// ---- RowTriple ----

// StreamProp implements PhysicalSource: the pull form of ScanProp — the same
// indexed range of the triples table, emitting only (s, o).
func (d *RowTriple) StreamProp(p, s, o rdf.ID, _ ScanCols, batchRows int) (RelIter, error) {
	bound := map[int]uint64{colP: uint64(p)}
	if s != rdf.NoID {
		bound[colS] = uint64(s)
	}
	if o != rdf.NoID {
		bound[colO] = uint64(o)
	}
	return &cursorIter{cur: d.eng.ScanEqStream(d.triples, bound, batchRows, colS, colO)}, nil
}

// StreamTriples implements PhysicalSource: the pull form of ScanTriples.
func (d *RowTriple) StreamTriples(s, o rdf.ID, _ ScanCols, batchRows int) RelIter {
	bound := map[int]uint64{}
	if s != rdf.NoID {
		bound[colS] = uint64(s)
	}
	if o != rdf.NoID {
		bound[colO] = uint64(o)
	}
	return &cursorIter{cur: d.eng.ScanEqStream(d.triples, bound, batchRows, colS, colP, colO)}
}

// ---- RowVert ----

// StreamProp implements PhysicalSource: a pull cursor over one property
// table (clustered SO for subject bounds, the OS index for object bounds —
// pickIndex decides, as in the bulk scan).
func (d *RowVert) StreamProp(p, s, o rdf.ID, _ ScanCols, batchRows int) (RelIter, error) {
	t, ok := d.tables[p]
	if !ok {
		return nil, fmt.Errorf("core: property %d not loaded in %s", p, d.Label())
	}
	bound := map[int]uint64{}
	if s != rdf.NoID {
		bound[vcS] = uint64(s)
	}
	if o != rdf.NoID {
		bound[vcO] = uint64(o)
	}
	return &cursorIter{cur: d.eng.ScanEqStream(t, bound, batchRows, vcS, vcO)}, nil
}

// StreamTriples implements PhysicalSource. The executor answers
// unbound properties on partitioned schemes through the per-property
// fan-out, so this is only the interface-completing fallback.
func (d *RowVert) StreamTriples(s, o rdf.ID, need ScanCols, batchRows int) RelIter {
	return &chunkRelIter{rel: d.ScanTriples(s, o, need), batch: batchRows}
}

// ---- column-store scheme helpers ----

// streamCol builds one output column of a streaming column scan, mirroring
// fetchIfNeeded: an un-needed position emits zeros for free, a bound
// position fills its constant for free, and only a needed unbound position
// fetches — which is the one case that charges a Fetch operator dispatch.
func streamCol(eng *colstore.Engine, c *colstore.Column, bound rdf.ID, needed bool) colstore.StreamCol {
	if !needed {
		return colstore.StreamCol{}
	}
	if bound != rdf.NoID {
		return colstore.StreamCol{Const: uint64(bound)}
	}
	// One Fetch call per demanded column in the bulk path.
	eng.ChargeNode()
	return colstore.StreamCol{C: c}
}

// ---- ColVert ----

// StreamProp implements PhysicalSource: the pull form of the vertical table
// scan. A bound subject binary-searches the sorted subject column to a
// position range (SelectEq's sorted path); a bound object scans the full
// table (SelectEq's unsorted path); the per-candidate selection tests and
// the needed fetches then follow the batches.
func (d *ColVert) StreamProp(p, s, o rdf.ID, need ScanCols, batchRows int) (RelIter, error) {
	t, ok := d.tables[p]
	if !ok {
		return nil, fmt.Errorf("core: property %d not loaded in %s", p, d.label)
	}
	sc, oc := t.Cols[0], t.Cols[1]
	lo, hi := 0, t.Rows()
	var conds []colstore.EqCond
	switch {
	case s != rdf.NoID:
		lo, hi = d.eng.SelectRange(sc, uint64(s))
		conds = append(conds, colstore.EqCond{C: sc, V: uint64(s)})
		if o != rdf.NoID {
			// The bulk path's SelectEqAt dispatch.
			d.eng.ChargeNode()
			conds = append(conds, colstore.EqCond{C: oc, V: uint64(o)})
		}
	case o != rdf.NoID:
		// Unsorted-column SelectEq: one dispatch, then a full-range scan.
		d.eng.ChargeNode()
		conds = append(conds, colstore.EqCond{C: oc, V: uint64(o)})
	}
	out := []colstore.StreamCol{
		streamCol(d.eng, sc, s, need.S),
		streamCol(d.eng, oc, o, need.O),
	}
	return &cursorIter{cur: d.eng.NewColScan(lo, hi, conds, out, batchRows)}, nil
}

// StreamTriples implements PhysicalSource; interface-completing fallback, as
// for RowVert.
func (d *ColVert) StreamTriples(s, o rdf.ID, need ScanCols, batchRows int) RelIter {
	return &chunkRelIter{rel: d.ScanTriples(s, o, need), batch: batchRows}
}

// ---- ColTriple ----

// streamSelect reproduces selectPos's access-path charges for a streaming
// scan: the leading bound column either binary-searches its sorted run or
// dispatches a full-range scan; every further bound column is one more
// selection dispatch refining the candidates.
func (d *ColTriple) streamSelect(lead *colstore.Column, leadV uint64, rest ...colstore.EqCond) (int, int, []colstore.EqCond) {
	lo, hi := 0, d.table.Rows()
	if lead.Sorted {
		lo, hi = d.eng.SelectRange(lead, leadV)
	} else {
		d.eng.ChargeNode()
	}
	conds := append([]colstore.EqCond{{C: lead, V: leadV}}, rest...)
	for range rest {
		// One SelectEqAt dispatch per refinement in the bulk path.
		d.eng.ChargeNode()
	}
	return lo, hi, conds
}

// StreamProp implements PhysicalSource: the pull form of ScanProp on the
// clustered triples table, selecting on p (then s, then o) and fetching
// only the demanded columns.
func (d *ColTriple) StreamProp(p, s, o rdf.ID, need ScanCols, batchRows int) (RelIter, error) {
	var rest []colstore.EqCond
	if s != rdf.NoID {
		rest = append(rest, colstore.EqCond{C: d.colS(), V: uint64(s)})
	}
	if o != rdf.NoID {
		rest = append(rest, colstore.EqCond{C: d.colO(), V: uint64(o)})
	}
	lo, hi, conds := d.streamSelect(d.colP(), uint64(p), rest...)
	out := []colstore.StreamCol{
		streamCol(d.eng, d.colS(), s, need.S),
		streamCol(d.eng, d.colO(), o, need.O),
	}
	return &cursorIter{cur: d.eng.NewColScan(lo, hi, conds, out, batchRows)}, nil
}

// StreamTriples implements PhysicalSource: the pull form of ScanTriples —
// width-3 batches with only the demanded columns fetched.
func (d *ColTriple) StreamTriples(s, o rdf.ID, need ScanCols, batchRows int) RelIter {
	lo, hi := 0, d.table.Rows()
	var conds []colstore.EqCond
	switch {
	case s != rdf.NoID:
		var rest []colstore.EqCond
		if o != rdf.NoID {
			rest = append(rest, colstore.EqCond{C: d.colO(), V: uint64(o)})
		}
		lo, hi, conds = d.streamSelect(d.colS(), uint64(s), rest...)
	case o != rdf.NoID:
		lo, hi, conds = d.streamSelect(d.colO(), uint64(o))
	}
	out := []colstore.StreamCol{
		streamCol(d.eng, d.colS(), s, need.S),
		streamCol(d.eng, d.colP(), rdf.NoID, need.P),
		streamCol(d.eng, d.colO(), o, need.O),
	}
	return &cursorIter{cur: d.eng.NewColScan(lo, hi, conds, out, batchRows)}
}
