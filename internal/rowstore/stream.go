package rowstore

import (
	"slices"

	"blackswan/internal/btree"
	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

// This file is the row store's one scan, the pull side of the executor
// contract (core.PhysicalSource): a cursor charged batch by batch, so early
// termination translates into real saved I/O. The operators themselves
// live once in internal/core and charge at the engine's Rates.

// ScanCursor is a conjunctive equality scan of one table, in index order:
// per-tuple CPU and leaf I/O are charged batch by batch, so a consumer that
// stops early pays only for the leaves and tuples it actually pulled.
type ScanCursor struct {
	e     *Engine
	cur   *btree.Cursor
	w     int                       // output width
	emit  [btree.MaxWidth]int       // key field of output column i < w
	resid [btree.MaxWidth][2]uint64 // (key field, value) of each bound column
	nres  int                       // 0 unless the index prefix leaves a residual
	batch int
	done  bool
}

// ScanEqStream opens a scan of the rows of t whose columns match every
// binding in bound, emitting the logical columns cols, in that order. The
// node-startup charge and access-path choice (pickIndex) happen here;
// per-tuple charges and leaf I/O follow the cursor. Bindings not covered by
// the index prefix are applied as a residual filter; it and the index key →
// output row permutation are resolved here, once.
func (e *Engine) ScanEqStream(t *Table, bound map[int]uint64, batchRows int, cols ...int) *ScanCursor {
	e.node()
	ix, plen := pickIndex(t, bound)
	var prefix btree.Key
	for j := 0; j < plen; j++ {
		prefix[j] = bound[ix.Perm[j]]
	}
	if batchRows <= 0 {
		batchRows = 1024
	}
	c := &ScanCursor{e: e, cur: ix.Tree.NewCursor(prefix, plen), w: len(cols), batch: batchRows}
	for j, col := range ix.Perm {
		for i, want := range cols {
			if col == want {
				c.emit[i] = j
			}
		}
		if v, ok := bound[col]; ok && len(bound) > plen {
			c.resid[c.nres] = [2]uint64{uint64(j), v}
			c.nres++
		}
	}
	return c
}

// Next refills out, the caller's buffer, with the next batch of matching
// rows, growing it only to the rows the batch holds, and reports whether
// there was one. A batch covers at most the configured count of index
// entries, copied out of the leaves — column by column unless a residual
// binding filters them, which can make it smaller, never empty.
func (c *ScanCursor) Next(out *rel.Rel) bool {
	out.W, out.Data = c.w, out.Data[:0]
	for !c.done && len(out.Data) == 0 {
		tuples := 0
		for tuples < c.batch {
			run := c.cur.Next(c.batch - tuples)
			if run == nil {
				c.done = true
				break
			}
			tuples += len(run)
			if c.nres == 0 {
				o := len(out.Data)
				out.Data = slices.Grow(out.Data, len(run)*c.w)[:o+len(run)*c.w]
				for i, j := range c.emit[:c.w] {
					for r := range run {
						out.Data[o+r*c.w+i] = run[r][j]
					}
				}
				continue
			}
		keys:
			for i := range run {
				k := &run[i]
				for _, r := range c.resid[:c.nres] {
					if k[r[0]] != r[1] {
						continue keys
					}
				}
				for _, j := range c.emit[:c.w] {
					out.Data = append(out.Data, k[j])
				}
			}
		}
		cost := Rates[simio.OpEmit].Price(tuples, c.w)
		if c.nres > 0 {
			cost += Rates[simio.OpFilter].Price(tuples, c.w)
		}
		c.e.Store.ChargeCPU(cost)
	}
	return len(out.Data) > 0
}
