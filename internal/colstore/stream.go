package colstore

import (
	"slices"

	"blackswan/internal/rel"
)

// This file is the column store's scan side of the executor contract
// (core.PhysicalSource): the scheme sources stream column ranges through
// ColReader, which issues read-ahead-sized I/O requests so batch-at-a-time
// access does not degenerate into page-at-a-time request overhead. The
// operators themselves live once in internal/core and charge at the
// engine's Rates.

// streamReadAheadBytes is how much of a column one read-ahead I/O request
// covers. Batch-at-a-time pulls would otherwise issue near-page-sized
// requests and pay per-request overhead hundreds of times where one range
// pays it once; a read-ahead window keeps the request count of a batched
// scan within a small constant of that, like the row store's 32-leaf index
// read-ahead.
const streamReadAheadBytes = 256 << 10

// ColReader streams the I/O of one column of a scan. A request begins at the
// first position needed — the first one asked for, then wherever the last
// request ended — and is extended to a read-ahead window only while the scan
// has a further batch to pull: read-ahead is a bet on the next pull, so a
// scan that hands on its whole range in one batch requests exactly the range
// each column needs, once. A reader that is dropped early simply never
// requests the tail, which is the pipelined executor's I/O saving.
type ColReader struct {
	c    *Column
	hi   int
	next int // first value not yet requested; -1 before the first request
}

// NewColReader positions a reader over the values of c below hi. No I/O
// happens until Ensure.
func (e *Engine) NewColReader(c *Column, hi int) *ColReader {
	return &ColReader{c: c, hi: min(hi, c.Len()), next: -1}
}

// Ensure requests the pages covering the values [from, to) not requested
// yet; more says the scan has a further batch to pull after this one.
func (r *ColReader) Ensure(from, to int, more bool) {
	if r.next < 0 {
		r.next = from
	}
	to = min(to, r.hi)
	if to <= r.next {
		return
	}
	if more {
		// A window holds the value count whose uncompressed image spans the
		// read-ahead size.
		to = min(max(to, r.next+streamReadAheadBytes/8), r.hi)
	}
	r.c.touch(r.next, to)
	r.next = to
}

// EqCond is one equality predicate a streaming column scan applies, in
// order, over its candidate positions.
type EqCond struct {
	C *Column
	V uint64
}

// StreamCol describes one output column of a scan: a real column to fetch,
// or a constant to fill (bound pattern positions cost nothing: the value is
// already known from the predicate). A zero StreamCol emits the constant 0
// (an un-needed position).
type StreamCol struct {
	C     *Column
	Const uint64
}

// ColScan scans a position range [lo, hi) of a table: per batch it applies
// the equality conditions in order (charging one selection test per
// surviving candidate) and fetches the output columns at the surviving
// positions (one positional fetch each). I/O flows through per-column
// ColReaders, so a scan dropped early never requests the unread tail.
type ColScan struct {
	e      *Engine
	hi     int
	cur    int
	batch  int
	conds  []EqCond
	condRd []*ColReader
	out    []StreamCol
	outRd  []*ColReader
	pos    []int32
}

// NewColScan opens a streaming scan. All node-startup and binary-search
// charges belong to the caller (they depend on the access path chosen);
// construction itself is free.
func (e *Engine) NewColScan(lo, hi int, conds []EqCond, out []StreamCol, batchRows int) *ColScan {
	if batchRows <= 0 {
		batchRows = 1024
	}
	s := &ColScan{e: e, hi: hi, cur: lo, batch: batchRows, conds: conds, out: out}
	for _, c := range conds {
		s.condRd = append(s.condRd, e.NewColReader(c.C, hi))
	}
	for _, c := range out {
		if c.C != nil {
			s.outRd = append(s.outRd, e.NewColReader(c.C, hi))
		} else {
			s.outRd = append(s.outRd, nil)
		}
	}
	return s
}

// Next refills out, the caller's buffer, with the next batch of assembled
// rows, sized to the rows it holds, and reports whether there was one.
// Positions are emitted in ascending order, so sorted columns keep their
// ordering property through the scan.
func (s *ColScan) Next(out *rel.Rel) bool {
	w := len(s.out)
	for s.cur < s.hi {
		lo, end := s.cur, s.cur+min(s.batch, s.hi-s.cur)
		s.cur = end
		more := end < s.hi
		// Without conditions the candidates are the range itself; otherwise
		// they start as the whole batch range and shrink through the
		// conditions in order.
		n, pos := end-lo, s.pos[:0]
		for i, cond := range s.conds {
			if i == 0 {
				pos = slices.Grow(pos, end-lo)
				for p := lo; p < end; p++ {
					pos = append(pos, int32(p))
				}
			}
			if len(pos) == 0 {
				break
			}
			s.condRd[i].Ensure(int(pos[0]), int(pos[len(pos)-1])+1, more)
			s.e.Store.ChargeCPU(int64(len(pos)) * selectValue)
			kept := pos[:0]
			for _, p := range pos {
				if cond.C.vals[p] == cond.V {
					kept = append(kept, p)
				}
			}
			pos = kept
		}
		if len(s.conds) > 0 {
			s.pos = pos
			if n = len(pos); n == 0 {
				continue
			}
			lo, end = int(pos[0]), int(pos[n-1])+1
		}
		d := slices.Grow(out.Data[:0], n*w)[:n*w]
		for i, c := range s.out {
			if c.C == nil {
				for r := 0; r < n; r++ {
					d[r*w+i] = c.Const
				}
				continue
			}
			s.outRd[i].Ensure(lo, end, more)
			s.e.Store.ChargeCPU(int64(n) * fetchValue)
			if len(s.conds) == 0 {
				for r, v := range c.C.vals[lo:end] {
					d[r*w+i] = v
				}
				continue
			}
			for r, p := range pos {
				d[r*w+i] = c.C.vals[p]
			}
		}
		out.W, out.Data = w, d
		return true
	}
	return false
}
