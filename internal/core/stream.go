package core

import (
	"context"
	"slices"
	"sort"
	"time"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

// This file is the executor: every logical plan is lowered, by build, onto
// the pull-based batched iterators below, and there is no other operator
// set. Operators exchange row batches, pipelines run without
// materialization barriers (only hash builds, grouping, sorts and shared
// subexpressions buffer), and TopN/LIMIT propagate early termination
// upstream by closing their inputs — which reaches all the way into the
// physical scans, so a pipelined LIMIT-10 plan stops paying simulated I/O
// after ten rows.
//
// One value configures a run (ExecOptions.Streaming): the batch size.
// Pipelined, batches hold BatchRows rows. Drained — the schedule of the
// systems the paper measures — the batch is unbounded, so every operator,
// scans included, hands on its whole output in one pull before its consumer
// runs. No operator tests which configuration it is in.
//
// Batch ownership: a batch belongs to the iterator that returned it and is
// valid until the next next()/close() on that iterator, which refills the
// same buffer. Consumers read it, pass it on, or copy what they keep (hash
// builds, TopN, distinct, the result); none writes to it. Buffers grow to
// the rows actually produced, so the executor allocates per query, not per
// batch, and a one-row lookup never pays for a BatchRows-sized buffer.
//
// Results are byte-identical at every batch size on every scheme: each
// operator's output row order is a function of its input order alone.
// Simulated CPU is a function of the work charged, not of how batches split
// it (simio.Clock scales the summed charges once, at read), so two
// configurations disagree only where they do different work: a scan
// abandoned early never pays for the leaves and column ranges it did not
// read, a column request is extended to a read-ahead window only while its
// scan has a further batch to pull, and a merge join charges the batch it
// pulled past the end of its shorter input.

// DefaultBatchRows is the pipelined batch size when ExecOptions.BatchRows
// is zero: large enough to amortize per-batch dispatch, small enough that a
// pipeline's in-flight state stays a few tens of kilobytes per edge.
const DefaultBatchRows = 1024

// memTracker tracks live intermediate-result bytes and their peak.
type memTracker struct {
	cur, peak int64
}

func (m *memTracker) alloc(n int64) {
	if n > 0 {
		m.cur += n
		m.peak = max(m.peak, m.cur)
	}
}

func (m *memTracker) free(n int64) {
	if n > 0 {
		m.cur -= n
	}
}

// relBytes is the tracked size of a relation: its row data.
func relBytes(r *rel.Rel) int64 {
	if r == nil {
		return 0
	}
	return int64(len(r.Data)) * 8
}

// ceilLog2 returns ⌈log₂ n⌉ (0 for n < 2).
func ceilLog2(n int) int64 {
	if n < 2 {
		return 0
	}
	lg := int64(0)
	for m := n - 1; m > 0; m >>= 1 {
		lg++
	}
	return lg
}

// sortCompares is the comparison count both engines charge for a full sort
// of n rows: n·⌈log₂ n⌉.
func sortCompares(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return int64(n) * ceilLog2(n)
}

// iter is one operator: next returns the next non-empty batch or
// nil at exhaustion; close terminates early and must propagate upstream.
// A batch is valid until the next next() or close() on the iterator that
// returned it — consumers copy what they retain, and never mutate.
type iter interface {
	next() (*rel.Rel, error)
	close()
}

// stream is one pipeline edge: the iterator plus the schema bookkeeping the
// build phase threads — column names, and the column the rows are known to
// ascend on ("" when unordered), the property that licenses merge joins.
type stream struct {
	it     iter
	cols   []string
	sorted string
}

// col is the position of a column the analysis proved the stream carries.
func (s stream) col(name string) int { return slices.Index(s.cols, name) }

// streamer is one plan execution: the plan analysis the lowering consults,
// the configuration, and the state the operators share.
type streamer struct {
	ctx  context.Context
	src  PhysicalSource
	ops  PhysicalOps
	plan *Plan
	tr   *Trace
	// memo holds each shared subexpression drained so far, by node number
	// (allocated at the first); see build.
	memo []shared
	mem  *memTracker
	// prof is the EXPLAIN ANALYZE collector, nil unless ExecOptions.Profile.
	prof *profiler
	// batch is the most rows an operator hands on at once — the
	// configuration.
	batch int
	// free holds the output buffers of closed operators for the operators
	// opened next — a partitioned access opens one scan → assemble → filter →
	// probe chain per property, up to 222 a query.
	free []*rel.Rel
}

// charge is the executor's one charge call: n rows of width w at the
// engine's rate for op.
func (st *streamer) charge(op simio.Op, n, w int) {
	st.ops.Store.ChargeCPU(st.ops.Rates[op].Price(n, w))
}

// poisonWord is what a recycled buffer is overwritten with while
// poisonRecycled is set (race builds and this package's tests), so a
// consumer that retains a batch past its iterator's next next()/close()
// fails the byte-identity corpora instead of passing on stale-but-right rows.
const poisonWord = 0xDEADBEEFDEADBEEF

var poisonRecycled = raceBuild

// reuse empties a buffer its owner is about to refill.
func reuse(r *rel.Rel) {
	if poisonRecycled {
		for i := range r.Data {
			r.Data[i] = poisonWord
		}
	}
	r.Data = r.Data[:0]
}

// take returns an empty width-w output buffer, off the free list if it can.
func (st *streamer) take(w int) *rel.Rel {
	n := len(st.free)
	if n == 0 {
		return rel.New(w)
	}
	r := st.free[n-1]
	st.free = st.free[:n-1]
	r.W = w
	return r
}

// give hands a closing operator's buffer (nil is fine) to the free list.
func (st *streamer) give(r *rel.Rel) {
	if r == nil {
		return
	}
	reuse(r)
	st.free = append(st.free, r)
}

// build lowers one plan node to a pipeline of iterators.
func (st *streamer) build(n Node) (stream, error) {
	if err := st.ctx.Err(); err != nil {
		return stream{}, err
	}
	// A pull iterator has exactly one consumer, so a shared subexpression
	// (q6's reused access) is a barrier: its first consumer's build drains it
	// into the memo, and every consumer reads the memo re-chunked.
	id := st.plan.index[n]
	if id < len(st.memo) && st.memo[id].rel != nil {
		m := st.memo[id]
		return stream{it: &chunkIter{st: st, rel: m.rel}, cols: m.cols, sorted: m.sorted}, nil
	}
	// Open the node's profile frame across the build phase (pipeline
	// breakers like the partitioned join's hash build charge here) and
	// wrap the finished edge so every next()/close() window accrues too.
	var prof *OpProfile
	var c0 charge
	var t0 time.Time
	if st.prof != nil {
		prof = st.prof.enter(n)
		c0 = st.prof.charges()
		t0 = time.Now()
	}
	var s stream
	var err error
	switch x := n.(type) {
	case *Access:
		s, err = st.buildAccess(x)
	case *Join:
		s, err = st.buildJoin(x)
	case *LeftJoin:
		s, err = st.buildLeftJoin(x)
	case *FilterNe:
		s, err = st.buildFilter(x.In, func(in stream) func([]uint64) bool {
			c, v := in.col(x.Col), uint64(x.Value)
			return func(row []uint64) bool { return row[c] != v }
		})
	case *FilterEqCols:
		s, err = st.buildFilter(x.In, func(in stream) func([]uint64) bool {
			a, b := in.col(x.A), in.col(x.B)
			return func(row []uint64) bool { return row[a] == row[b] }
		})
	case *FilterRange:
		s, err = st.buildFilter(x.In, func(in stream) func([]uint64) bool {
			c, pred := in.col(x.Col), RangePred(x)
			return func(row []uint64) bool { return pred(row[c]) }
		})
	case *Having:
		s, err = st.buildFilter(x.In, func(in stream) func([]uint64) bool {
			c := in.col(x.Col)
			return func(row []uint64) bool { return row[c] > x.Min }
		})
	case *Distinct:
		s, err = st.buildDistinct(x)
	case *Union:
		s, err = st.buildUnion(x)
	case *Group:
		s, err = st.buildGroup(x)
	case *Project:
		s, err = st.buildProject(x)
	case *TopN:
		s, err = st.buildTopN(x)
	case *Limit:
		s, err = st.buildLimit(x)
	}
	if prof != nil {
		prof.add(st.prof.charges().sub(c0), time.Since(t0))
		st.prof.exit()
	}
	if err != nil {
		return stream{}, err
	}
	// Every edge's in-flight batch counts toward peak memory.
	s.it = &edge{mem: st.mem, in: s.it}
	if prof != nil {
		s.it = &profIter{p: st.prof, prof: prof, in: s.it}
	}
	if st.plan.nodes[id].uses > 1 {
		rows, err := st.drain(s.it, len(s.cols), true)
		if err != nil {
			return stream{}, err
		}
		if st.memo == nil {
			st.memo = make([]shared, len(st.plan.nodes))
		}
		st.memo[id] = shared{rel: rows, cols: s.cols, sorted: s.sorted}
		return st.build(n)
	}
	return s, nil
}

// edge wraps an operator output: it tracks the in-flight batch as live
// memory and makes close idempotent, so operators may close their inputs
// defensively.
type edge struct {
	mem    *memTracker
	in     iter
	held   int64
	closed bool
}

func (e *edge) next() (*rel.Rel, error) {
	if e.closed {
		return nil, nil
	}
	b, err := e.in.next()
	e.mem.free(e.held)
	e.held = 0
	if b != nil {
		e.held = relBytes(b)
		e.mem.alloc(e.held)
	}
	return b, err
}

func (e *edge) close() {
	if e.closed {
		return
	}
	e.closed = true
	e.mem.free(e.held)
	e.held = 0
	e.in.close()
}

// chunkIter hands an already-materialized relation on in batches. The views
// alias the backing array (which is already tracked), so no charges and no
// fresh allocation happen.
type chunkIter struct {
	st   *streamer
	rel  *rel.Rel
	cur  int
	view rel.Rel
}

func (c *chunkIter) next() (*rel.Rel, error) {
	if err := c.st.ctx.Err(); err != nil {
		return nil, err
	}
	n := c.rel.Len()
	if c.cur >= n {
		return nil, nil
	}
	hi := c.cur + min(c.st.batch, n-c.cur)
	c.view = rel.Rel{W: c.rel.W, Data: c.rel.Data[c.cur*c.rel.W : hi*c.rel.W]}
	c.cur = hi
	return &c.view, nil
}

func (c *chunkIter) close() { c.cur = c.rel.Len() }

// srcIter adapts a physical RelIter: counts source batches and checks the
// request context at every batch boundary, so cancellation lands mid-scan.
type srcIter struct {
	st  *streamer
	src RelIter
}

func (s *srcIter) next() (*rel.Rel, error) {
	for {
		if err := s.st.ctx.Err(); err != nil {
			return nil, err
		}
		b, err := s.src.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		if b.Len() == 0 {
			continue
		}
		s.st.tr.SourceBatches++
		return b, nil
	}
}

// source wraps a physical scan, lending an engine cursor its batch buffer
// from the free list until close.
func (st *streamer) source(src RelIter) iter {
	if c, ok := src.(*cursorIter); ok {
		c.out = st.take(1) // the cursor sets the width
	}
	return &srcIter{st: st, src: src}
}

func (s *srcIter) close() {
	if c, ok := s.src.(*cursorIter); ok {
		s.st.give(c.out)
		c.out = nil
	}
	s.src.Close()
}

// gatherIter applies a compiled column mapping (assembly, projection, union
// alignment) per batch into its own buffer, skipping batches it empties.
type gatherIter struct {
	st  *streamer
	in  iter
	g   *gather
	k   uint64
	out *rel.Rel
}

// gathered wraps in with g under the constant k; an identity mapping adds
// nothing to the pipeline.
func (st *streamer) gathered(in iter, g *gather, k uint64) iter {
	if g.pass {
		return in
	}
	return &gatherIter{st: st, in: in, g: g, k: k, out: st.take(len(g.src))}
}

func (m *gatherIter) next() (*rel.Rel, error) {
	for {
		b, err := m.in.next()
		if b == nil || err != nil {
			return nil, err
		}
		if m.g.run(m.out, b, m.k).Len() > 0 {
			return m.out, nil
		}
	}
}

func (m *gatherIter) close() {
	m.st.give(m.out)
	m.out = nil
	m.in.close()
}

// emptyIter emits nothing.
type emptyIter struct{}

func (emptyIter) next() (*rel.Rel, error) { return nil, nil }
func (emptyIter) close()                  {}

// drain pulls an input to exhaustion into one relation and closes it — the
// pipeline breakers' buffering step. A live relation is one that stays
// until the plan finishes (the result, a shared subexpression): it is
// counted as it grows; a breaker accounts for its own buffer once it knows
// what it keeps.
func (st *streamer) drain(it iter, w int, live bool) (*rel.Rel, error) {
	out := rel.New(w)
	for {
		b, err := it.next()
		if err != nil {
			it.close()
			return nil, err
		}
		if b == nil {
			break
		}
		out.Grow(len(b.Data))
		out.Data = append(out.Data, b.Data...)
		if live {
			st.mem.alloc(relBytes(b))
		}
	}
	it.close()
	return out, nil
}

// propStream opens one per-property scan.
func (st *streamer) propStream(p, s, o rdf.ID, need ScanCols) (iter, error) {
	ri, err := st.src.StreamProp(p, s, o, need, st.batch)
	if err != nil {
		return nil, err
	}
	return st.source(ri), nil
}

func (st *streamer) buildAccess(a *Access) (stream, error) {
	tp, f := a.Pattern, st.plan.info(a)

	if tp.P.Bound() {
		it, err := st.propStream(tp.P.Const, tp.S.Const, tp.O.Const, f.need)
		if err != nil {
			return stream{}, err
		}
		out := st.gathered(it, compileAssembly(f.slots, f.cols, 2), uint64(tp.P.Const))
		sorted := ""
		if st.src.PropOrdered() {
			switch {
			case !tp.S.Bound() && tp.S.Var != "":
				sorted = tp.S.Var
			case !tp.O.Bound() && tp.O.Var != "":
				sorted = tp.O.Var
			}
		}
		return stream{it: out, cols: f.cols, sorted: sorted}, nil
	}

	if st.src.Partitioned() {
		return stream{it: st.keyed(a, st.tables(a), 1, len(f.cols), nil), cols: f.cols}, nil
	}

	// Unbound property on a triple-store: one streamed scan, with the
	// properties-table restriction applied per batch as a hash semijoin
	// (index the 28 properties once, probe every row).
	need := f.need
	if a.Restrict {
		need.P = true
	}
	it := st.source(st.src.StreamTriples(tp.S.Const, tp.O.Const, need, st.batch))
	if a.Restrict {
		// The restriction set comes from the catalog: building it (28 rows)
		// is a constant the executor does not charge, testing each row is.
		set := rel.NewJoinIndex(idsRel(st.src.Cat().Interesting), 0)
		st.charge(simio.OpNode, 1, 1)
		it = st.filtered(it, 3, simio.OpRestrict, func(row []uint64) bool { return set.First(row[1]) >= 0 })
	}
	return stream{it: st.gathered(it, compileAssembly(f.slots, f.cols, 3), 0), cols: f.cols}, nil
}

// fanout is the one concatenation operator: it streams its n parts in
// order, each to exhaustion. The parts are built inputs (parts: a Union's
// two, a probeIter's replay) or opened one at a time as the fan-out reaches
// them (open: a keyed access's per-key scans), so closing early opens no
// part it did not reach — the saving of a LIMIT over a fan-out — and closes
// every built part exactly once, reached or not. Its one parameter, w, is
// the width each batch's union movement is charged at; it can exceed the
// emitted width, since a partitioned join fuses the projection the union
// precedes in the paper's plans. At w zero the parts are no union but one
// input in pieces, and nothing is charged.
type fanout struct {
	st    *streamer
	w     int
	parts []iter
	open  func(i int) (iter, error)
	n     int
	cur   int
	it    iter
}

func (f *fanout) next() (*rel.Rel, error) {
	for {
		if f.it == nil {
			if f.cur >= f.n {
				return nil, nil
			}
			if f.open == nil {
				f.it = f.parts[f.cur]
			} else if it, err := f.open(f.cur); err != nil {
				return nil, err
			} else {
				f.it = it
			}
			f.cur++
		}
		b, err := f.it.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			f.it.close()
			f.it = nil
			continue
		}
		if f.w > 0 {
			f.st.charge(simio.OpUnion, b.Len(), f.w)
		}
		return b, nil
	}
}

func (f *fanout) close() {
	if f.it != nil {
		f.it.close()
		f.it = nil
	}
	for ; f.cur < len(f.parts); f.cur++ {
		f.parts[f.cur].close()
	}
	f.cur = f.n
}

// tables is the key list of a partitioned access: the catalog's property
// tables, or only the interesting ones under the properties-table restriction.
func (st *streamer) tables(a *Access) []rdf.ID {
	if a.Restrict {
		return st.src.Cat().Interesting
	}
	return st.src.Cat().AllProps
}

// keyed is the keyed access, the one lowering that opens per-key scans: a's
// scan once per key, in key order, with the key bound in the pattern's slot
// (1, the property: a partitioned access's tables; 0, the subject: an index
// probe's seeks), each part's rows tagged by a's one compiled assembly and
// passed through arm (nil: as they are). A part opens when the fan-out
// reaches it, so one part's buffers go back before the next's are lent. A
// per-property part is an input of the paper's union-all: it charges one
// operator dispatch and counts in Trace.PartitionScans, and w is the union's
// charge width (fanout).
func (st *streamer) keyed(a *Access, keys []rdf.ID, slot, w int, arm func(iter) iter) *fanout {
	f := st.plan.info(a)
	asm := compileAssembly(f.slots, f.cols, 2)
	spo := [3]rdf.ID{a.Pattern.S.Const, a.Pattern.P.Const, a.Pattern.O.Const}
	open := func(i int) (iter, error) {
		spo[slot] = keys[i]
		it, err := st.propStream(spo[1], spo[0], spo[2], f.need)
		if err != nil {
			return nil, err
		}
		it = st.gathered(it, asm, uint64(spo[1]))
		if slot == 1 {
			st.charge(simio.OpNode, 1, 1)
			st.tr.PartitionScans++
		}
		if arm != nil {
			it = arm(it)
		}
		return it, nil
	}
	return &fanout{st: st, w: w, open: open, n: len(keys)}
}

// filterIter drops rows failing pred, charging each evaluated row at op:
// OpFilter, or OpRestrict for the interesting-properties restriction.
type filterIter struct {
	st   *streamer
	in   iter
	w    int
	pred func([]uint64) bool
	op   simio.Op
	out  *rel.Rel
}

func (st *streamer) filtered(in iter, w int, op simio.Op, pred func([]uint64) bool) iter {
	return &filterIter{st: st, in: in, w: w, pred: pred, op: op, out: st.take(w)}
}

func (f *filterIter) next() (*rel.Rel, error) {
	for {
		b, err := f.in.next()
		if b == nil || err != nil {
			return nil, err
		}
		n := b.Len()
		f.st.charge(f.op, n, f.w)
		reuse(f.out)
		for i := 0; i < n; i++ {
			row := b.Row(i)
			if f.pred(row) {
				f.out.Data = append(f.out.Data, row...)
			}
		}
		if f.out.Len() > 0 {
			return f.out, nil
		}
	}
}

func (f *filterIter) close() {
	f.st.give(f.out)
	f.out = nil
	f.in.close()
}

func (st *streamer) buildFilter(in Node, mk func(stream) func([]uint64) bool) (stream, error) {
	s, err := st.build(in)
	if err != nil {
		return stream{}, err
	}
	st.charge(simio.OpNode, 1, 1)
	return stream{
		it:     st.filtered(s.it, len(s.cols), simio.OpFilter, mk(s)),
		cols:   s.cols,
		sorted: s.sorted,
	}, nil
}

// chose records a join's lowering decision: in the trace and as its note.
func (st *streamer) chose(n Node, v string, s JoinStrategy) {
	st.tr.Joins = append(st.tr.Joins, JoinChoice{Var: v, Strategy: s})
	if st.prof != nil {
		st.prof.note(n, string(s))
	}
}

func (st *streamer) buildJoin(j *Join) (stream, error) {
	sides := [2][2]Node{{j.R, j.L}, {j.L, j.R}}
	for _, s := range sides {
		if a, f := st.partitionedJoinSide(s[0]); a != nil {
			other, err := st.build(s[1])
			if err != nil {
				return stream{}, err
			}
			return st.buildPartitionedJoin(j, other, a, f)
		}
	}
	// The right input first: its outer is the left, which a hash join drains.
	for i, s := range sides {
		if a := st.probeSide(j, s[0]); a != nil {
			return st.buildProbeJoin(j, a, s[1], i == 1)
		}
	}
	l, err := st.build(j.L)
	if err != nil {
		return stream{}, err
	}
	r, err := st.build(j.R)
	if err != nil {
		l.it.close()
		return stream{}, err
	}
	return st.joinStreams(j, l, r, false), nil
}

// joinStreams joins two built inputs: a linear merge when both ascend on the
// join variable, else a hash join; by name an index probe over a keyScan.
func (st *streamer) joinStreams(j *Join, l, r stream, probed bool) stream {
	v := st.plan.info(j).v
	lc, rc := l.col(v), r.col(v)
	cols := joinCols(l.cols, r.cols)
	st.charge(simio.OpNode, 1, 1)
	var it iter
	strategy, sorted := JoinHash, ""
	if l.sorted == v && r.sorted == v {
		strategy, sorted = JoinMerge, v
		it = &mergeJoinIter{st: st, l: l.it, r: r.it, lc: lc, rc: rc, lw: len(l.cols), rw: len(r.cols), out: st.take(len(cols))}
	} else {
		it = &hashJoinIter{st: st, l: l.it, r: r.it, lc: lc, rc: rc, lw: len(l.cols), rw: len(r.cols), out: st.take(len(cols))}
	}
	if probed {
		strategy = JoinIndexProbe
	}
	st.chose(j, v, strategy)
	return stream{it: it, cols: cols, sorted: sorted}
}

// probeSide returns acc if j, licensed, may probe it: the scheme seeks a subject,
// and acc is a bare, unshared, property-bound access joined on its subject.
func (st *streamer) probeSide(j *Join, acc Node) *Access {
	a, ok := acc.(*Access)
	if !ok || j.ProbeMax <= 0 || st.plan.info(a).uses > 1 || !st.src.PropSeekable() || !a.Pattern.P.Bound() ||
		a.Pattern.S.Bound() || st.plan.info(j).v != a.Pattern.S.Var {
		return nil
	}
	return a
}

// buildProbeJoin lowers a join with a probe side onto probeIter, declaring
// the output to ascend on the join variable only where both outcomes do.
func (st *streamer) buildProbeJoin(j *Join, a *Access, other Node, accLeft bool) (stream, error) {
	outer, err := st.build(other)
	if err != nil {
		return stream{}, err
	}
	v := a.Pattern.S.Var
	accCols := st.plan.info(a).cols // the subject slot leads and is always kept
	s := stream{it: &probeIter{st: st, j: j, a: a, accLeft: accLeft, outer: outer}, cols: joinCols(outer.cols, accCols)}
	if accLeft {
		s.cols = joinCols(accCols, outer.cols)
	}
	if outer.sorted == v && st.src.PropOrdered() {
		s.sorted = v
	}
	return s, nil
}

// probeIter is a join licensed to probe, chosen at its first pull: it reads
// the other input, the outer, until that ends or outgrows Join.ProbeMax. A
// small outer is the index probe: the access is answered by seeking the
// outer's keys (keyScan), never scanned. A large outer is the unlicensed
// join — same operators, charges, row order — over the rows read, then the rest.
type probeIter struct {
	st      *streamer
	j       *Join
	a       *Access
	accLeft bool   // the access is the join's left input
	outer   stream // the other input
	bytes   int64  // the outer rows start copied, held until close
	in      iter   // the chosen join
}

func (p *probeIter) start() error {
	st, head := p.st, rel.New(len(p.outer.cols))
	var over *rel.Rel // the batch that outgrew the bound, still its owner's
	for over == nil {
		b, err := p.outer.it.next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if head.Len()+b.Len() > p.j.ProbeMax {
			over = b
		} else {
			head.Grow(len(b.Data))
			head.Data = append(head.Data, b.Data...)
		}
	}
	p.bytes = relBytes(head)
	st.mem.alloc(p.bytes)
	if st.prof != nil { // the access's frame goes under the join's, though its build is over
		st.prof.reenter(p.j)
		defer st.prof.exit()
	}
	outer, acc, err := p.outer, stream{}, error(nil)
	if over == nil {
		p.outer.it.close()
		outer.it = &chunkIter{st: st, rel: head}
		acc = st.keyScan(p.a, head, outer)
	} else { // the copied rows, the batch that outgrew the bound, the live rest
		parts := []iter{&chunkIter{st: st, rel: head}, &chunkIter{st: st, rel: over}, p.outer.it}
		outer.it = &fanout{st: st, parts: parts, n: len(parts)}
		acc, err = st.build(p.a)
	}
	if err != nil {
		return err
	}
	if p.accLeft {
		outer, acc = acc, outer
	}
	p.in = st.joinStreams(p.j, outer, acc, over == nil).it
	return nil
}

func (p *probeIter) next() (*rel.Rel, error) {
	if p.in == nil {
		if err := p.start(); err != nil {
			return nil, err
		}
	}
	return p.in.next()
}

func (p *probeIter) close() {
	p.st.mem.free(p.bytes)
	if p.in != nil {
		p.in.close()
	}
	p.outer.it.close()
}

// keyScan lowers a probed access: the keyed access with the subject bound
// to each distinct key of rows in turn, each probe charged by the StreamProp
// it opens.
func (st *streamer) keyScan(a *Access, rows *rel.Rel, outer stream) stream {
	tp, kc := a.Pattern, outer.col(a.Pattern.S.Var)
	// NULL (an OPTIONAL's unmatched row) joins nothing — and as a scan bound
	// it would mean "unbound".
	seen := map[uint64]bool{uint64(rdf.NoID): true}
	var keys []rdf.ID
	for i, n := 0, rows.Len(); i < n; i++ {
		if k := rows.Row(i)[kc]; !seen[k] {
			seen[k] = true
			keys = append(keys, rdf.ID(k))
		}
	}
	s := stream{it: &edge{mem: st.mem, in: st.keyed(a, keys, 0, 0, nil)}, cols: st.plan.info(a).cols}
	if outer.sorted == tp.S.Var {
		s.sorted = outer.sorted // ascending keys give ascending rows
	}
	if st.prof != nil {
		s.it = &profIter{p: st.prof, prof: st.prof.enter(a), in: s.it}
		st.prof.exit()
	}
	return s
}

// hashJoinIter builds on the smaller input, as any optimizer would arrange,
// without knowing |R| in advance: it drains L (the build side's size is
// always known to an optimizer), then buffers R only until R proves at least
// as large as L — from then on R streams straight through the probe. When R
// exhausts smaller, the buffered R builds and the drained L probes in order.
// Either way the emitted order is probe-major with matches in
// build-insertion order, whatever the batch size. A partitioned join's arms
// run only the probe phase, over the one build the join drained.
type hashJoinIter struct {
	st      *streamer
	l, r    iter
	lc, rc  int
	lw, rw  int
	started bool
	done    bool

	ht       *rel.JoinIndex
	build    *rel.Rel // build side rows in insertion order
	buildIsL bool
	// The buffered probe side — the drained L, or the copied head of R —
	// replays as views of one relation, st.batch rows at a time.
	probeRel *rel.Rel
	probeCur int
	view     rel.Rel
	bufBytes int64
	out      *rel.Rel
}

func (h *hashJoinIter) start() error {
	h.started = true
	lrel, err := h.st.drain(h.l, h.lw, false)
	if err != nil {
		return err
	}
	h.hold(relBytes(lrel))
	nl := lrel.Len()
	if nl == 0 {
		// No row can join: R is closed unread.
		h.r.close()
		h.done = true
		h.release()
		return nil
	}
	rbuf := rel.New(h.rw)
	for rbuf.Len() < nl {
		b, err := h.r.next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		h.hold(relBytes(b))
		rbuf.Grow(len(b.Data))
		rbuf.Data = append(rbuf.Data, b.Data...)
	}
	// R strictly smaller builds (insertion order = R order) and the drained L
	// probes in its order; otherwise L builds and R probes, its buffered head
	// first and then the live tail.
	h.buildIsL = rbuf.Len() >= nl
	if h.buildIsL {
		h.build, h.probeRel = lrel, rbuf
		h.ht = rel.NewJoinIndex(lrel, h.lc)
	} else {
		h.build, h.probeRel = rbuf, lrel
		h.ht = rel.NewJoinIndex(rbuf, h.rc)
	}
	// The table's buckets are live alongside the buffered rows.
	h.hold(int64(h.build.Len()) * 16)
	h.st.charge(simio.OpHashBuild, h.build.Len(), h.build.W)
	return nil
}

func (h *hashJoinIter) hold(n int64) {
	h.st.mem.alloc(n)
	h.bufBytes += n
}

func (h *hashJoinIter) release() {
	h.st.mem.free(h.bufBytes)
	h.bufBytes = 0
	h.ht, h.build, h.probeRel = nil, nil, nil
}

// nextProbe returns the next probe-side batch, or nil at exhaustion.
func (h *hashJoinIter) nextProbe() (*rel.Rel, error) {
	if p := h.probeRel; p != nil && h.probeCur < p.Len() {
		hi := h.probeCur + min(h.st.batch, p.Len()-h.probeCur)
		h.view = rel.Rel{W: p.W, Data: p.Data[h.probeCur*p.W : hi*p.W]}
		h.probeCur = hi
		return &h.view, nil
	}
	if h.buildIsL {
		return h.r.next()
	}
	return nil, nil
}

func (h *hashJoinIter) next() (*rel.Rel, error) {
	if !h.started {
		if err := h.start(); err != nil {
			return nil, err
		}
	}
	if h.done {
		return nil, nil
	}
	pc := h.rc
	if !h.buildIsL {
		pc = h.lc
	}
	for {
		pb, err := h.nextProbe()
		if err != nil {
			return nil, err
		}
		if pb == nil {
			h.done = true
			h.release()
			return nil, nil
		}
		n := pb.Len()
		h.st.charge(simio.OpHashProbe, n, pb.W)
		reuse(h.out)
		for i := 0; i < n; i++ {
			for bi := h.ht.First(pb.Data[i*pb.W+pc]); bi >= 0; bi = h.ht.Next(bi) {
				brow, prow := h.build.Row(bi), pb.Row(i)
				if h.buildIsL {
					appendJoinRow(h.out, brow, prow, h.rc)
				} else {
					appendJoinRow(h.out, prow, brow, h.rc)
				}
			}
		}
		if h.out.Len() > 0 {
			// Charged at the join's pre-projection width; the operator fuses
			// the free projection that drops the duplicate join column.
			h.st.charge(simio.OpJoinEmit, h.out.Len(), h.lw+h.rw)
			return h.out, nil
		}
	}
}

// appendJoinRow emits one joined row: the left row, then the right row minus
// its copy of the join column — the executor's post-join projection, fused.
func appendJoinRow(out *rel.Rel, lrow, rrow []uint64, rc int) {
	out.Data = append(out.Data, lrow...)
	for i, v := range rrow {
		if i != rc {
			out.Data = append(out.Data, v)
		}
	}
}

func (h *hashJoinIter) close() {
	h.done = true
	h.release()
	h.st.give(h.out)
	h.out = nil
	h.l.close()
	h.r.close()
}

// buildLeftJoin is SPARQL's OPTIONAL: the optional (right) side builds — it
// must be complete before any left row can be declared unmatched — and the
// required (left) side streams through the probe in order, so left ordering
// survives. There is no partitioned pushdown for the same reason: the
// OPTIONAL boundary is also a fan-out boundary.
func (st *streamer) buildLeftJoin(j *LeftJoin) (stream, error) {
	l, err := st.build(j.L)
	if err != nil {
		return stream{}, err
	}
	r, err := st.build(j.R)
	if err != nil {
		l.it.close()
		return stream{}, err
	}
	v := st.plan.info(j).v
	lc, rc := l.col(v), r.col(v)
	st.chose(j, v, JoinHash)
	cols := joinCols(l.cols, r.cols)
	st.charge(simio.OpNode, 1, 1)
	it := &leftJoinIter{st: st, l: l.it, r: r.it, lc: lc, rc: rc, lw: len(l.cols), rw: len(r.cols),
		nulls: slices.Repeat([]uint64{uint64(rdf.NoID)}, len(r.cols)), out: st.take(len(cols))}
	return stream{it: it, cols: cols, sorted: l.sorted}, nil
}

type leftJoinIter struct {
	st       *streamer
	l, r     iter
	lc, rc   int
	lw, rw   int
	started  bool
	ht       *rel.JoinIndex
	build    *rel.Rel
	nulls    []uint64
	bufBytes int64
	out      *rel.Rel
}

func (j *leftJoinIter) start() error {
	j.started = true
	rrel, err := j.st.drain(j.r, j.rw, false)
	if err != nil {
		return err
	}
	j.build = rrel
	j.bufBytes = relBytes(rrel) + int64(rrel.Len())*16
	j.st.mem.alloc(j.bufBytes)
	j.ht = rel.NewJoinIndex(rrel, j.rc)
	j.st.charge(simio.OpHashBuild, rrel.Len(), j.rw)
	return nil
}

func (j *leftJoinIter) next() (*rel.Rel, error) {
	if !j.started {
		if err := j.start(); err != nil {
			return nil, err
		}
	}
	b, err := j.l.next()
	if b == nil || err != nil {
		return nil, err
	}
	n := b.Len()
	j.st.charge(simio.OpHashProbe, n, j.lw)
	reuse(j.out)
	for i := 0; i < n; i++ {
		lrow := b.Row(i)
		bi := j.ht.First(lrow[j.lc])
		if bi < 0 {
			appendJoinRow(j.out, lrow, j.nulls, j.rc)
		}
		for ; bi >= 0; bi = j.ht.Next(bi) {
			appendJoinRow(j.out, lrow, j.build.Row(bi), j.rc)
		}
	}
	// Every left row emits at least once, so the batch is never empty.
	// Charged at the join's pre-projection width.
	j.st.charge(simio.OpJoinEmit, j.out.Len(), j.lw+j.rw)
	return j.out, nil
}

func (j *leftJoinIter) close() {
	j.st.mem.free(j.bufBytes)
	j.bufBytes = 0
	j.ht = nil
	j.build = nil
	j.st.give(j.out)
	j.out = nil
	j.l.close()
	j.r.close()
}

// rowCur steps row-at-a-time over a batch iterator — the merge join's input
// abstraction. Advancement charges accrue per pulled batch.
type rowCur struct {
	st   *streamer
	in   iter
	w    int
	b    *rel.Rel
	i    int
	done bool
}

// cur returns the current row, pulling the next batch as needed; nil at
// exhaustion.
func (c *rowCur) cur() ([]uint64, error) {
	for {
		if c.done {
			return nil, nil
		}
		if c.b != nil && c.i < c.b.Len() {
			return c.b.Row(c.i), nil
		}
		b, err := c.in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			c.done = true
			return nil, nil
		}
		c.st.charge(simio.OpMerge, b.Len(), c.w)
		c.b, c.i = b, 0
	}
}

func (c *rowCur) advance() { c.i++ }

// mergeJoinIter is the linear merge join over two inputs sorted on their
// join columns — the "simple, fast (linear) merge join" the vertically-
// partitioned scheme gets on subject-subject joins of SO-clustered tables.
// Equal runs cross-product left-outer; only the current right-side run is
// buffered, so memory stays bounded by the largest run.
type mergeJoinIter struct {
	st     *streamer
	l, r   iter
	lc, rc int
	lw, rw int
	lcur   *rowCur
	rcur   *rowCur
	// run is the buffered right-side equal run (rw values a row) being
	// crossed with the current left rows.
	run      []uint64
	runVal   uint64
	inRun    bool
	runBytes int64
	done     bool
	out      *rel.Rel
}

func (m *mergeJoinIter) init() {
	if m.lcur == nil {
		m.lcur = &rowCur{st: m.st, in: m.l, w: m.lw}
		m.rcur = &rowCur{st: m.st, in: m.r, w: m.rw}
	}
}

func (m *mergeJoinIter) next() (*rel.Rel, error) {
	if m.done {
		return nil, nil
	}
	m.init()
	out := m.out
	reuse(out)
	for out.Len() < m.st.batch {
		if m.inRun {
			// Cross the current left row with the buffered right run, then
			// step to the next left row of the run.
			lrow, err := m.lcur.cur()
			if err != nil {
				return nil, err
			}
			if lrow == nil || lrow[m.lc] != m.runVal {
				m.endRun()
				continue
			}
			for i := 0; i < len(m.run); i += m.rw {
				appendJoinRow(out, lrow, m.run[i:i+m.rw], m.rc)
			}
			m.lcur.advance()
			continue
		}
		lrow, err := m.lcur.cur()
		if err != nil {
			return nil, err
		}
		rrow, err := m.rcur.cur()
		if err != nil {
			return nil, err
		}
		if lrow == nil || rrow == nil {
			m.done = true
			break
		}
		lv, rv := lrow[m.lc], rrow[m.rc]
		switch {
		case lv < rv:
			m.lcur.advance()
		case lv > rv:
			m.rcur.advance()
		default:
			// Buffer the full right-side equal run (it may span batches).
			m.runVal = lv
			m.inRun = true
			for {
				m.run = append(m.run, rrow...)
				m.runBytes += int64(m.rw) * 8
				m.rcur.advance()
				rrow, err = m.rcur.cur()
				if err != nil {
					return nil, err
				}
				if rrow == nil || rrow[m.rc] != m.runVal {
					break
				}
			}
			m.st.mem.alloc(m.runBytes)
		}
	}
	if out.Len() == 0 {
		return nil, nil
	}
	// Charged at the join's pre-projection width.
	m.st.charge(simio.OpJoinEmit, out.Len(), m.lw+m.rw)
	return out, nil
}

func (m *mergeJoinIter) endRun() {
	m.inRun = false
	m.run = m.run[:0]
	m.st.mem.free(m.runBytes)
	m.runBytes = 0
}

func (m *mergeJoinIter) close() {
	m.done = true
	if m.runBytes > 0 {
		m.st.mem.free(m.runBytes)
		m.runBytes = 0
	}
	m.st.give(m.out)
	m.out = nil
	m.l.close()
	m.r.close()
}

// buildPartitionedJoin distributes a join over the per-property union of a
// partitioned access — the vertically-partitioned plans of the paper, with
// "more than two hundred unions and joins". The non-access side drains once
// into a hash build, and every part of the keyed access streams through
// scan → tag → [filter] → the hash join's probe phase over that one build,
// in property order. Join distributes over union, so the result is the same
// bag, emitted without ever materializing the union.
func (st *streamer) buildPartitionedJoin(j *Join, other stream, a *Access, f *FilterNe) (stream, error) {
	v, accCols := st.plan.info(j).v, st.plan.info(a).cols
	oc, ac, fc := other.col(v), slices.Index(accCols, v), -1
	if f != nil {
		fc = slices.Index(accCols, f.Col)
	}
	// Build once over the drained non-access side.
	orel, err := st.drain(other.it, len(other.cols), false)
	if err != nil {
		return stream{}, err
	}
	bufBytes := relBytes(orel) + int64(orel.Len())*16
	st.mem.alloc(bufBytes)
	st.charge(simio.OpNode, 1, 1)
	st.charge(simio.OpHashBuild, orel.Len(), len(other.cols))
	st.chose(j, v, JoinPartitionedHash)
	cols := joinCols(other.cols, accCols)
	if orel.Len() == 0 {
		// Nothing can join: skip the fan-out entirely.
		st.mem.free(bufBytes)
		return stream{it: emptyIter{}, cols: cols}, nil
	}
	ht := rel.NewJoinIndex(orel, oc)
	var accProf, filtProf *OpProfile
	if st.prof != nil {
		accProf, filtProf = st.profileFused(a, f)
	}
	arm := func(it iter) iter {
		if st.prof != nil {
			it = &countIter{in: it, prof: accProf}
		}
		if fc >= 0 {
			st.charge(simio.OpNode, 1, 1)
			val := uint64(f.Value)
			it = st.filtered(it, len(accCols), simio.OpFilter, func(row []uint64) bool { return row[fc] != val })
			if st.prof != nil {
				it = &countIter{in: it, prof: filtProf}
			}
		}
		st.charge(simio.OpNode, 1, 1) // the per-table probe dispatch
		return &hashJoinIter{st: st, l: emptyIter{}, r: it, lc: oc, rc: ac, lw: orel.W, rw: len(accCols),
			started: true, buildIsL: true, ht: ht, build: orel, out: st.take(len(cols))}
	}
	// Union movement is charged at the pre-projection width (the probe
	// outputs before dropping the join column).
	fo := st.keyed(a, st.tables(a), 1, len(other.cols)+len(accCols), arm)
	return stream{it: &releaseIter{in: fo, free: func() {
		st.mem.free(bufBytes)
	}}, cols: cols}, nil
}

// releaseIter frees buffered operator state exactly once, at close or
// exhaustion, whichever comes first.
type releaseIter struct {
	in    iter
	free  func()
	freed bool
}

func (r *releaseIter) next() (*rel.Rel, error) {
	b, err := r.in.next()
	if b == nil && r.free != nil && !r.freed {
		r.freed = true
		r.free()
	}
	return b, err
}

func (r *releaseIter) close() {
	if !r.freed {
		r.freed = true
		if r.free != nil {
			r.free()
		}
	}
	r.in.close()
}

func (st *streamer) buildDistinct(d *Distinct) (stream, error) {
	s, err := st.build(d.In)
	if err != nil {
		return stream{}, err
	}
	st.charge(simio.OpNode, 1, 1)
	it := &distinctIter{st: st, in: s.it, w: len(s.cols), seen: rel.NewTable(len(s.cols), len(s.cols))}
	return stream{it: it, cols: s.cols, sorted: s.sorted}, nil
}

// distinctIter keeps first occurrences in input order — both engines'
// Distinct semantics — in a table of the rows kept, which only appends: a
// batch it emits is a view of the rows that batch added, valid for good.
type distinctIter struct {
	st       *streamer
	in       iter
	w        int
	seen     *rel.Table
	keyBytes int64
	view     rel.Rel
}

func (d *distinctIter) next() (*rel.Rel, error) {
	for {
		b, err := d.in.next()
		if b == nil || err != nil {
			return nil, err
		}
		n := b.Len()
		d.st.charge(simio.OpDistinct, n, d.w)
		from := len(d.seen.Data)
		for i := 0; i < n; i++ {
			if _, added := d.seen.Add(b.Row(i)); added {
				kb := int64(8*d.w) + 16
				d.st.mem.alloc(kb)
				d.keyBytes += kb
			}
		}
		if to := len(d.seen.Data); to > from {
			d.view = rel.Rel{W: d.w, Data: d.seen.Data[from:to:to]}
			return &d.view, nil
		}
	}
}

func (d *distinctIter) close() {
	d.st.mem.free(d.keyBytes)
	d.keyBytes = 0
	d.seen = nil
	d.in.close()
}

func (st *streamer) buildUnion(u *Union) (stream, error) {
	l, err := st.build(u.L)
	if err != nil {
		return stream{}, err
	}
	r, err := st.build(u.R)
	if err != nil {
		l.it.close()
		return stream{}, err
	}
	perm := make([]int, len(l.cols))
	for i, c := range l.cols {
		perm[i] = r.col(c)
	}
	st.charge(simio.OpNode, 1, 1)
	// The right side's column order is aligned per batch when it differs.
	parts := []iter{l.it, st.gathered(r.it, newGather(perm, nil, len(perm)), 0)}
	return stream{it: &fanout{st: st, w: len(l.cols), parts: parts, n: len(parts)}, cols: l.cols}, nil
}

func (st *streamer) buildGroup(g *Group) (stream, error) {
	s, err := st.build(g.In)
	if err != nil {
		return stream{}, err
	}
	keys := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		keys[i] = s.col(k)
	}
	st.charge(simio.OpNode, 1, 1)
	it := &groupIter{st: st, in: s.it, keys: keys, w: len(s.cols)}
	return stream{it: it, cols: st.plan.info(g).cols, sorted: g.Keys[0]}, nil
}

// groupIter is a pipeline breaker, but a compact one: it counts group sizes
// incrementally per batch — only the group table is buffered, never the
// input — then emits the sorted (keys..., count) rows both engines'
// GroupCount produce, ordered in place by a radix sort on the keys.
type groupIter struct {
	st       *streamer
	in       iter
	keys     []int
	w        int
	out      *chunkIter
	tabBytes int64
}

func (g *groupIter) start() error {
	k := len(g.keys)
	tab := rel.NewTable(k+1, k)
	var key [2]uint64
	for {
		b, err := g.in.next()
		if err != nil {
			g.in.close()
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		g.st.charge(simio.OpGroup, n, k)
		for i := 0; i < n; i++ {
			row := b.Row(i)
			for j, c := range g.keys {
				key[j] = row[c]
			}
			r, added := tab.Add(key[:k])
			if added {
				g.st.mem.alloc(40)
				g.tabBytes += 40
			}
			tab.Data[r*(k+1)+k]++
		}
	}
	g.in.close()
	// The table's entries are the output rows; only their order changes.
	out := tab.Sorted()
	g.st.mem.alloc(relBytes(out))
	g.tabBytes += relBytes(out)
	g.out = &chunkIter{st: g.st, rel: out}
	return nil
}

func (g *groupIter) next() (*rel.Rel, error) {
	if g.out == nil {
		if err := g.start(); err != nil {
			return nil, err
		}
	}
	return g.out.next()
}

func (g *groupIter) close() {
	g.st.mem.free(g.tabBytes)
	g.tabBytes = 0
	g.out = nil
	g.in.close()
}

func (st *streamer) buildProject(p *Project) (stream, error) {
	s, err := st.build(p.In)
	if err != nil {
		return stream{}, err
	}
	idx := make([]int, len(p.Cols))
	for i, c := range p.Cols {
		idx[i] = s.col(c)
	}
	names := st.plan.info(p).cols
	sorted := ""
	for i, c := range p.Cols {
		if c == s.sorted {
			sorted = names[i]
		}
	}
	it := st.gathered(s.it, newGather(idx, nil, len(s.cols)), 0)
	return stream{it: it, cols: names, sorted: sorted}, nil
}

func (st *streamer) buildTopN(t *TopN) (stream, error) {
	s, err := st.build(t.In)
	if err != nil {
		return stream{}, err
	}
	less := SortLess(t.Keys, s.cols, t.Ord)
	st.charge(simio.OpNode, 1, 1)
	if st.prof != nil {
		if t.Limit >= 0 {
			st.prof.note(t, "heap")
		} else {
			st.prof.note(t, "sort")
		}
	}
	it := &topNIter{st: st, in: s.it, less: less, limit: t.Limit, w: len(s.cols)}
	return stream{it: it, cols: s.cols, sorted: ""}, nil
}

// topNIter is ORDER BY with an optional LIMIT, under one rule in every
// configuration. For a limit k ≥ 0 it keeps the k least rows under less in
// a max-heap (worst at the root), charging exactly ceil(log2 k) comparisons
// per input row, and sorts the survivors at the end — under the plan
// layer's total order that is the first k rows of the full sort, byte for
// byte. A negative limit is plain ORDER BY: nothing can terminate early, so
// the input drains and sorts whole at n·ceil(log2 n) comparisons. Either way
// the finished rows are charged as one output pass.
type topNIter struct {
	st      *streamer
	in      iter
	less    func(a, b []uint64) bool
	limit   int
	w       int
	started bool
	out     *chunkIter
	heap    [][]uint64
	bytes   int64
}

func (t *topNIter) hold(n int64) {
	t.st.mem.alloc(n)
	t.bytes += n
}

func (t *topNIter) start() error {
	t.started = true
	stat := TopNStat{Limit: t.limit, Heap: t.limit >= 0}
	var rows [][]uint64
	switch k := t.limit; {
	case k == 0:
		// LIMIT 0 pulls nothing: close the input before it does any work.
		t.in.close()
	case k < 0:
		in, err := t.st.drain(t.in, t.w, false)
		if err != nil {
			return err
		}
		t.hold(relBytes(in))
		stat.Input = in.Len()
		stat.Compares = sortCompares(stat.Input)
		t.st.charge(simio.OpSort, int(stat.Compares), 1)
		rows = make([][]uint64, stat.Input)
		for i := range rows {
			rows[i] = in.Row(i)
		}
	default:
		perRow := ceilLog2(k)
		for {
			b, err := t.in.next()
			if err != nil {
				t.in.close()
				return err
			}
			if b == nil {
				break
			}
			n := b.Len()
			stat.Input += n
			t.st.charge(simio.OpSort, n*int(perRow), 1)
			for i := 0; i < n; i++ {
				t.push(b.Row(i), k)
			}
		}
		t.in.close()
		stat.Compares = int64(stat.Input) * perRow
		rows, t.heap = t.heap, nil
	}
	sort.Slice(rows, func(i, j int) bool { return t.less(rows[i], rows[j]) })
	out := rel.NewCap(t.w, len(rows))
	for _, row := range rows {
		out.Data = append(out.Data, row...)
	}
	t.st.charge(simio.OpEmit, out.Len(), t.w)
	t.st.tr.TopNs = append(t.st.tr.TopNs, stat)
	t.hold(relBytes(out))
	t.out = &chunkIter{st: t.st, rel: out}
	return nil
}

// push offers one row to the bounded max-heap of the k least rows.
func (t *topNIter) push(row []uint64, k int) {
	h := t.heap
	if len(h) < k {
		cp := append([]uint64(nil), row...)
		h = append(h, cp)
		t.st.mem.alloc(int64(t.w) * 8)
		t.bytes += int64(t.w) * 8
		// Sift up: parents hold the greater row.
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !t.less(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		t.heap = h
		return
	}
	if !t.less(row, h[0]) {
		return
	}
	copy(h[0], row)
	// Sift down.
	i := 0
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && t.less(h[big], h[l]) {
			big = l
		}
		if r < n && t.less(h[big], h[r]) {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

func (t *topNIter) next() (*rel.Rel, error) {
	if !t.started {
		if err := t.start(); err != nil {
			return nil, err
		}
	}
	if t.out == nil {
		return nil, nil
	}
	return t.out.next()
}

func (t *topNIter) close() {
	t.st.mem.free(t.bytes)
	t.bytes = 0
	t.heap = nil
	t.out = nil
	t.in.close()
}

func (st *streamer) buildLimit(l *Limit) (stream, error) {
	s, err := st.build(l.In)
	if err != nil {
		return stream{}, err
	}
	n := l.N
	if n < 0 {
		n = 0
	}
	it := &limitIter{in: s.it, remaining: n}
	return stream{it: it, cols: s.cols, sorted: s.sorted}, nil
}

// limitIter passes its input's first N rows through and then closes the
// input — the early-termination signal that propagates all the way into the
// physical scans. Closing recycles the input's buffers, so the batch that
// reaches the limit is copied out first. Truncation itself is free: neither
// engine charges for a plan-level prefix.
type limitIter struct {
	in        iter
	remaining int
}

func (l *limitIter) next() (*rel.Rel, error) {
	if l.remaining <= 0 {
		l.in.close()
		return nil, nil
	}
	b, err := l.in.next()
	if b == nil || err != nil {
		l.remaining = 0
		return nil, err
	}
	if b.Len() < l.remaining {
		l.remaining -= b.Len()
		return b, nil
	}
	last := &rel.Rel{W: b.W, Data: slices.Clone(b.Data[:l.remaining*b.W])}
	l.remaining = 0
	l.in.close()
	return last, nil
}

func (l *limitIter) close() { l.in.close() }
