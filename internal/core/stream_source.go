package core

import (
	"fmt"
	"math"

	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// This file is the physical scan layer of the four storage schemes: each
// scan is a pull iterator whose access-path charges are paid as its batches
// are pulled — so a consumer that terminates early (LIMIT, TopN, an
// exhausted join build) saves the simulated CPU and I/O of the unread tail —
// and a materialized scan is that iterator opened with an unbounded batch
// and collected.

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

// chunkRelIter replays rows already in memory (the overlay's additions) in
// batches of at most batch rows.
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
	hi := c.cur + min(c.batch, n-c.cur)
	c.view = rel.Rel{W: c.rel.W, Data: c.rel.Data[c.cur*c.rel.W : hi*c.rel.W]}
	c.cur = hi
	return &c.view, nil
}

func (c *chunkRelIter) Close() {}

// propConcat scans a property roster as (s, p, o) rows: the per-property
// pull scans one after another, each batch widened with its property — the
// unbound-property scan of the partitioned schemes. A property without a
// table matches nothing.
type propConcat struct {
	src   PhysicalSource
	props []rdf.ID
	s, o  rdf.ID
	need  ScanCols
	batch int
	p     rdf.ID  // the property of cur
	cur   RelIter // nil between properties
	out   rel.Rel
}

func (c *propConcat) Next() (*rel.Rel, error) {
	for {
		if c.cur == nil {
			if len(c.props) == 0 {
				return nil, nil
			}
			c.p, c.props = c.props[0], c.props[1:]
			it, err := c.src.StreamProp(c.p, c.s, c.o, c.need, c.batch)
			if err != nil {
				continue
			}
			c.cur = it
		}
		b, err := c.cur.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			c.cur.Close()
			c.cur = nil
			continue
		}
		reuse(&c.out)
		c.out.W = 3
		for i, n := 0, b.Len(); i < n; i++ {
			row := b.Row(i)
			c.out.Data = append(c.out.Data, row[0], uint64(c.p), row[1])
		}
		return &c.out, nil
	}
}

func (c *propConcat) Close() {
	if c.cur != nil {
		c.cur.Close()
	}
	c.cur, c.props = nil, nil
}

// collect is the materialized form of a scan: the pull scan drained into
// one relation of width w.
func collect(it RelIter, w int) (*rel.Rel, error) {
	defer it.Close()
	out := rel.New(w)
	for {
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out.Data = append(out.Data, b.Data...)
	}
}

// collectProp is every scheme's ScanProp: StreamProp under an unbounded
// batch, collected.
func collectProp(src PhysicalSource, p, s, o rdf.ID, need ScanCols) (*rel.Rel, error) {
	it, err := src.StreamProp(p, s, o, need, math.MaxInt)
	if err != nil {
		return nil, err
	}
	return collect(it, 2)
}

// ---- RowTriple ----

// StreamProp implements PhysicalSource: a bound-property range of the
// triples table, via whichever index prefix the optimizer picks, emitting
// only (s, o). The need mask is ignored: a row store always reads whole
// tuples.
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

// StreamTriples implements PhysicalSource: the unbound-property scan of the
// triples table, the need mask ignored as in StreamProp.
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

// StreamProp implements PhysicalSource: an indexed scan of one property
// table (clustered SO for subject bounds, the unclustered OS index for
// object bounds — pickIndex decides). The need mask is ignored: a row store
// always reads whole tuples.
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

// StreamTriples implements PhysicalSource as every property table in turn —
// the union proliferation the paper warns about. The executor answers
// unbound properties on partitioned schemes through its own per-property
// fan-out, so no plan reaches this; it stays so that one interface serves
// every scheme.
func (d *RowVert) StreamTriples(s, o rdf.ID, need ScanCols, batchRows int) RelIter {
	return &propConcat{src: d, props: d.cat.AllProps, s: s, o: o, need: need, batch: batchRows}
}

// ---- column-store scheme helpers ----

// streamCol builds one output column of a column scan: an un-needed
// position emits zeros for free, a bound position fills its constant for
// free (the value is already known from the predicate), and only a needed
// unbound position fetches — the one case that charges a fetch operator
// dispatch.
func streamCol(eng *colstore.Engine, c *colstore.Column, bound rdf.ID, needed bool) colstore.StreamCol {
	if !needed {
		return colstore.StreamCol{}
	}
	if bound != rdf.NoID {
		return colstore.StreamCol{Const: uint64(bound)}
	}
	eng.ChargeNode()
	return colstore.StreamCol{C: c}
}

// ---- ColVert ----

// StreamProp implements PhysicalSource: positional selection on one
// property table, materializing only the columns the plan demands. A bound
// subject binary-searches the sorted subject column to a position range; a
// bound object alone scans the full table; the per-candidate selection
// tests and the needed fetches then follow the batches. It fails for
// properties the restricted C-Store load did not materialize, exactly as
// the original code base could not answer the full-roster queries.
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
			// One more selection dispatch refining the candidates.
			d.eng.ChargeNode()
			conds = append(conds, colstore.EqCond{C: oc, V: uint64(o)})
		}
	case o != rdf.NoID:
		// An unsorted column: one dispatch, then a full-range scan.
		d.eng.ChargeNode()
		conds = append(conds, colstore.EqCond{C: oc, V: uint64(o)})
	}
	out := []colstore.StreamCol{
		streamCol(d.eng, sc, s, need.S),
		streamCol(d.eng, oc, o, need.O),
	}
	return &cursorIter{cur: d.eng.NewColScan(lo, hi, conds, out, batchRows)}, nil
}

// StreamTriples implements PhysicalSource as every loaded table in turn,
// with masked per-table fetches; no plan reaches it, as for RowVert.
func (d *ColVert) StreamTriples(s, o rdf.ID, need ScanCols, batchRows int) RelIter {
	return &propConcat{src: d, props: d.loaded, s: s, o: o, need: need, batch: batchRows}
}

// ---- ColTriple ----

// streamSelect charges a scan's access path: the leading bound column
// either binary-searches its sorted run (free on the clustering's leading
// column) or dispatches a full-range scan; every further bound column is
// one more selection dispatch refining the candidates.
func (d *ColTriple) streamSelect(lead *colstore.Column, leadV uint64, rest ...colstore.EqCond) (int, int, []colstore.EqCond) {
	lo, hi := 0, d.table.Rows()
	if lead.Sorted {
		lo, hi = d.eng.SelectRange(lead, leadV)
	} else {
		d.eng.ChargeNode()
	}
	conds := append([]colstore.EqCond{{C: lead, V: leadV}}, rest...)
	for range rest {
		d.eng.ChargeNode()
	}
	return lo, hi, conds
}

// StreamProp implements PhysicalSource: a positional selection on the
// clustered triples table — on p, then s, then o — that materializes only
// the columns the plan demands, the late materialization the hand-written
// column-at-a-time plans relied on.
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

// StreamTriples implements PhysicalSource: the unbound-property scan with
// late materialization — width-3 batches with only the demanded columns
// fetched.
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
