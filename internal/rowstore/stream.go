package rowstore

import (
	"slices"

	"blackswan/internal/btree"
	"blackswan/internal/rel"
)

// This file is the row store's side of the executor contract
// (core.PhysicalOps / core.PhysicalSource). The operators themselves live
// once in internal/core and are engine-agnostic; what the engine supplies is
// (a) per-row charge rates matching its tuple-at-a-time cost model, and (b)
// the engine's one scan: a pull cursor charged batch by batch, so early
// termination translates into real saved I/O.

// StreamNode charges one plan-node startup, as node() does for a scan.
func (e *Engine) StreamNode() { e.Store.ChargeCPU(e.Costs.NodeStartup) }

// StreamFilterRows charges n residual predicate evaluations.
func (e *Engine) StreamFilterRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.FilterTuple) }

// StreamHashBuildRows charges inserting n tuples into a join hash table.
func (e *Engine) StreamHashBuildRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.HashBuild) }

// StreamHashProbeRows charges probing n tuples against a hash table.
func (e *Engine) StreamHashProbeRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.HashProbe) }

// StreamMergeRows charges advancing n tuples through a merge join.
func (e *Engine) StreamMergeRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.MergeTuple) }

// StreamUnionRows charges moving n tuples through a union.
func (e *Engine) StreamUnionRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.UnionTuple) }

// StreamDistinctRows charges deduplicating n tuples.
func (e *Engine) StreamDistinctRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.DistinctTuple) }

// StreamGroupRows charges aggregating n tuples (the group key count is
// irrelevant in the tuple-at-a-time model).
func (e *Engine) StreamGroupRows(n, keys int) { e.Store.ChargeCPU(int64(n) * e.Costs.GroupTuple) }

// StreamRestrictRows charges the interesting-properties restriction: the
// row engine implements it as a hash semijoin probe.
func (e *Engine) StreamRestrictRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.HashProbe) }

// StreamJoinEmitRows charges assembling n join output rows. Free in the
// row model: a row store hands the already-assembled tuple pair upward, and
// the per-tuple work was charged on the probe.
func (e *Engine) StreamJoinEmitRows(n, w int) {}

// StreamEmitRows charges moving n finished rows into an output buffer (a
// scan-like pass of its own, mirroring the column store's gather charge).
func (e *Engine) StreamEmitRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.ScanTuple) }

// StreamSortCompares charges n sort comparisons (ORDER BY / heap TopN).
func (e *Engine) StreamSortCompares(n int64) { e.Store.ChargeCPU(n * e.Costs.SortTuple) }

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
		cost := int64(tuples) * c.e.Costs.ScanTuple
		if c.nres > 0 {
			cost += int64(tuples) * c.e.Costs.FilterTuple
		}
		c.e.Store.ChargeCPU(cost)
	}
	return len(out.Data) > 0
}
