package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// This file is the streaming executor: the same logical plans as exec.go,
// lowered onto pull-based batched iterators instead of operator-at-a-time
// materialization. Operators exchange fixed-size row batches, pipelines run
// without materialization barriers (only hash builds, grouping and full
// sorts buffer), and TopN/LIMIT propagate early termination upstream by
// closing their inputs — which reaches all the way into the physical scans,
// so a LIMIT-10 plan stops paying simulated I/O after ten rows.
//
// Batch ownership: a batch belongs to the iterator that returned it and is
// valid until the next next()/close() on that iterator, which refills the
// same buffer. Consumers read it, pass it on, or copy what they keep (hash
// builds, TopN, distinct, the result); none writes to it. Buffers grow to
// the rows actually produced, so the executor allocates per query, not per
// batch, and a one-row lookup never pays for a BatchRows-sized buffer.
//
// The contract with the materializing executor is result byte-identity:
// every streaming operator replicates the materializing operator's output
// row order exactly, so the concatenation of the emitted batches equals the
// materializing result on every scheme. Simulated charges agree when a plan
// is fully drained (the per-row rates below are the engines' own), and
// deliberately diverge where the execution strategy genuinely differs: a
// bounded-heap TopN charges n·ceil(log2 k) comparisons instead of a full
// sort's n·ceil(log2 n), an early-terminated scan never pays for the leaves
// and column ranges it did not read, and column I/O is requested in
// read-ahead windows instead of one bulk range.

// DefaultBatchRows is the streaming batch size when ExecOptions.BatchRows
// is zero: large enough to amortize per-batch dispatch, small enough that a
// pipeline's in-flight state stays a few tens of kilobytes per edge.
const DefaultBatchRows = 1024

// StreamOps is the per-row charge vocabulary an engine supplies to the
// streaming operators. The operators themselves live here, engine-agnostic;
// each call charges n rows (of width w, where the engine's cost model cares)
// at the engine's own rate for that operator class, so a fully drained
// streaming plan charges what the materializing operators would. An engine
// whose PhysicalOps does not implement StreamOps silently falls back to the
// materializing executor.
type StreamOps interface {
	// StreamNode charges one operator dispatch (plan-node startup).
	StreamNode()
	// StreamScanRows charges emitting n scanned rows of width w.
	StreamScanRows(n, w int)
	// StreamFilterRows charges n predicate evaluations over width-w rows.
	StreamFilterRows(n, w int)
	// StreamHashBuildRows charges inserting n rows into a join hash table.
	StreamHashBuildRows(n, w int)
	// StreamHashProbeRows charges probing n rows against a hash table.
	StreamHashProbeRows(n, w int)
	// StreamMergeRows charges advancing n rows through a merge join.
	StreamMergeRows(n, w int)
	// StreamUnionRows charges moving n rows of width w through a union.
	StreamUnionRows(n, w int)
	// StreamDistinctRows charges deduplicating n rows of width w.
	StreamDistinctRows(n, w int)
	// StreamRestrictRows charges testing n rows against the interesting-
	// properties restriction (a hash semijoin on the row engine, a set
	// filter on the column engine — each engine supplies its materializing
	// operator's rate).
	StreamRestrictRows(n, w int)
	// StreamGroupRows charges aggregating n rows under keys grouping columns.
	StreamGroupRows(n, keys int)
	// StreamJoinEmitRows charges materializing n join output rows of width w.
	StreamJoinEmitRows(n, w int)
	// StreamEmitRows charges moving n finished rows into an output buffer.
	StreamEmitRows(n, w int)
	// StreamSortCompares charges n sort comparisons (ORDER BY / heap TopN).
	StreamSortCompares(n int64)
}

// RelIter is the pull contract of a streaming physical scan: Next returns
// the next non-empty batch or nil when exhausted; Close releases the scan
// early (abandoning it is the early-termination protocol — an engine scan
// holds no resources, it simply stops charging). The batch is the scan's own
// buffer, valid until the next Next or Close: callers copy what they keep.
type RelIter interface {
	Next() (*rel.Rel, error)
	Close()
}

// StreamSource is the optional scheme extension the streaming executor
// prefers over ScanProp/ScanTriples: the same rows in the same order,
// delivered batch by batch so consumers that stop early save the tail's
// simulated I/O. Schemes that do not implement it still stream — their
// scans materialize first and are re-chunked.
type StreamSource interface {
	// StreamProp is the pull form of ScanProp (width-2 batches).
	StreamProp(p, s, o rdf.ID, need ScanCols, batchRows int) (RelIter, error)
	// StreamTriples is the pull form of ScanTriples (width-3 batches).
	StreamTriples(s, o rdf.ID, need ScanCols, batchRows int) RelIter
}

// memTracker tracks live intermediate-result bytes. Atomics, not a plain
// counter: the parallel fan-out's prefetch workers allocate batches
// concurrently with the consuming pipeline.
type memTracker struct {
	cur  atomic.Int64
	peak atomic.Int64
}

func (m *memTracker) alloc(n int64) {
	if n <= 0 {
		return
	}
	c := m.cur.Add(n)
	for {
		p := m.peak.Load()
		if c <= p || m.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

func (m *memTracker) free(n int64) {
	if n > 0 {
		m.cur.Add(-n)
	}
}

func (m *memTracker) peakBytes() int64 { return m.peak.Load() }

// current returns the live bytes right now — the profiler samples it at
// operator boundaries for per-node peak attribution.
func (m *memTracker) current() int64 { return m.cur.Load() }

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

// iter is one streaming operator: next returns the next non-empty batch or
// nil at exhaustion; close terminates early and must propagate upstream.
// A batch is valid until the next next() or close() on the iterator that
// returned it — consumers copy what they retain, and never mutate.
type iter interface {
	next() (*rel.Rel, error)
	close()
}

// stream is one pipeline edge: the iterator plus the schema bookkeeping the
// build phase threads exactly as the materializing executor's batch struct.
type stream struct {
	it     iter
	cols   []string
	sorted string
}

func (s stream) col(name string) (int, error) {
	for i, c := range s.cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no column %q in %v", name, s.cols)
}

// streamer orchestrates one streaming execution. The counters are atomics
// because prefetch workers update them concurrently with the main pipeline;
// they fold into the Trace once the plan finishes.
type streamer struct {
	ex         *executor
	sops       StreamOps
	batch      int
	srcBatches atomic.Int64
	partScans  atomic.Int64
	unionParts atomic.Int64
	parallel   atomic.Bool
	// free holds the output buffers of closed operators for the operators
	// opened next — a partitioned access opens one scan → assemble → filter →
	// probe chain per property, up to 222 a query. Locked: with Workers > 1
	// the chains open and close on the prefetch workers.
	freeMu sync.Mutex
	free   []*rel.Rel
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
	st.freeMu.Lock()
	defer st.freeMu.Unlock()
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
	st.freeMu.Lock()
	st.free = append(st.free, r)
	st.freeMu.Unlock()
}

// runStream executes root through the streaming operator set. The result is
// the concatenation of the root iterator's batches — byte-identical to the
// materializing executor's output.
func (ex *executor) runStream(root Node, sops StreamOps) (*rel.Rel, []string, *Trace, error) {
	batch := ex.opt.BatchRows
	if batch <= 0 {
		batch = DefaultBatchRows
	}
	st := &streamer{ex: ex, sops: sops, batch: batch}
	s, err := st.build(root)
	if err != nil {
		return nil, nil, nil, err
	}
	out := rel.New(len(s.cols))
	for {
		b, err := s.it.next()
		if err != nil {
			s.it.close()
			return nil, nil, nil, err
		}
		if b == nil {
			break
		}
		out.Data = append(out.Data, b.Data...)
		// The accumulating result is live memory, as the root memo entry is
		// for the materializing executor.
		ex.mem.alloc(relBytes(b))
	}
	s.it.close()
	ex.tr.Streamed = true
	ex.tr.SourceBatches += int(st.srcBatches.Load())
	ex.tr.PartitionScans += int(st.partScans.Load())
	ex.tr.UnionParts += int(st.unionParts.Load())
	if st.parallel.Load() {
		ex.tr.Parallel = true
	}
	ex.tr.PeakBytes = ex.mem.peakBytes()
	return out, s.cols, ex.tr, nil
}

// build lowers one plan node to a streaming pipeline, mirroring eval's
// operator selection decision for decision.
func (st *streamer) build(n Node) (stream, error) {
	ex := st.ex
	if err := ex.ctx.Err(); err != nil {
		return stream{}, err
	}
	// A pull iterator has exactly one consumer, so a shared subexpression
	// (q6's reused access) is evaluated once through the memoizing
	// materializing path and re-chunked per consumer — shared nodes are
	// barriers in both executors.
	if ex.uses[n] > 1 {
		b, err := ex.eval(n)
		if err != nil {
			return stream{}, err
		}
		return stream{
			it:     &chunkIter{st: st, rel: b.rel, batch: st.batch},
			cols:   b.cols,
			sorted: b.sorted,
		}, nil
	}
	// Open the node's profile frame across the build phase (pipeline
	// breakers like the partitioned join's hash build charge here) and
	// wrap the finished edge so every next()/close() window accrues too.
	var prof *OpProfile
	var c0 charge
	var t0 time.Time
	if ex.prof != nil {
		prof = ex.prof.enter(n)
		c0 = ex.prof.charges()
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
		s, err = st.buildFilter(x.In, func(in stream) (func([]uint64) bool, error) {
			c, err := in.col(x.Col)
			if err != nil {
				return nil, err
			}
			v := uint64(x.Value)
			return func(row []uint64) bool { return row[c] != v }, nil
		})
	case *FilterEqCols:
		s, err = st.buildFilter(x.In, func(in stream) (func([]uint64) bool, error) {
			a, err := in.col(x.A)
			if err != nil {
				return nil, err
			}
			b, err := in.col(x.B)
			if err != nil {
				return nil, err
			}
			return func(row []uint64) bool { return row[a] == row[b] }, nil
		})
	case *FilterRange:
		s, err = st.buildFilter(x.In, func(in stream) (func([]uint64) bool, error) {
			c, err := in.col(x.Col)
			if err != nil {
				return nil, err
			}
			pred := RangePred(x)
			return func(row []uint64) bool { return pred(row[c]) }, nil
		})
	case *Having:
		s, err = st.buildFilter(x.In, func(in stream) (func([]uint64) bool, error) {
			c, err := in.col(x.Col)
			if err != nil {
				return nil, err
			}
			return func(row []uint64) bool { return row[c] > x.Min }, nil
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
	default:
		err = fmt.Errorf("unknown plan node %T", n)
	}
	if prof != nil {
		prof.add(ex.prof.charges().sub(c0), time.Since(t0))
		ex.prof.exit()
	}
	if err != nil {
		return stream{}, err
	}
	// Every edge's in-flight batch counts toward peak memory.
	s.it = &edge{mem: ex.mem, in: s.it}
	if prof != nil {
		s.it = &profIter{p: ex.prof, prof: prof, in: s.it}
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

// chunkIter slices an already-materialized relation into batches. The views
// alias the backing array (which is already tracked), so no charges and no
// fresh allocation happen — exactly what memo reuse costs the materializing
// executor.
type chunkIter struct {
	st    *streamer
	rel   *rel.Rel
	batch int
	cur   int
	src   bool
	view  rel.Rel
}

func (c *chunkIter) next() (*rel.Rel, error) {
	if err := c.st.ex.ctx.Err(); err != nil {
		return nil, err
	}
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
	if c.src {
		c.st.srcBatches.Add(1)
	}
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
		if err := s.st.ex.ctx.Err(); err != nil {
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
		s.st.srcBatches.Add(1)
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

// drainAll pulls an input to exhaustion into one relation and closes it —
// the pipeline breakers' buffering step.
func drainAll(it iter, w int) (*rel.Rel, error) {
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
		out.Data = append(out.Data, b.Data...)
	}
	it.close()
	return out, nil
}

// propStream opens a streaming per-property scan, falling back to a chunked
// materializing scan on schemes without StreamSource.
func (st *streamer) propStream(p, s, o rdf.ID, need ScanCols) (iter, error) {
	if ss, ok := st.ex.src.(StreamSource); ok {
		ri, err := ss.StreamProp(p, s, o, need, st.batch)
		if err != nil {
			return nil, err
		}
		return st.source(ri), nil
	}
	rows, err := st.ex.src.ScanProp(p, s, o, need)
	if err != nil {
		return nil, err
	}
	st.ex.mem.alloc(relBytes(rows))
	return &chunkIter{st: st, rel: rows, batch: st.batch, src: true}, nil
}

// triplesStream is propStream's unbound-property counterpart.
func (st *streamer) triplesStream(s, o rdf.ID, need ScanCols) iter {
	if ss, ok := st.ex.src.(StreamSource); ok {
		return st.source(ss.StreamTriples(s, o, need, st.batch))
	}
	rows := st.ex.src.ScanTriples(s, o, need)
	st.ex.mem.alloc(relBytes(rows))
	return &chunkIter{st: st, rel: rows, batch: st.batch, src: true}
}

func (st *streamer) buildAccess(a *Access) (stream, error) {
	ex := st.ex
	tp := a.Pattern
	slots := ex.keptSlots(a)

	if tp.P.Bound() {
		it, err := st.propStream(tp.P.Const, tp.S.Const, tp.O.Const, needOf(slots))
		if err != nil {
			return stream{}, err
		}
		cols := slotCols(slots)
		out := st.gathered(it, compileAssembly(slots, 2), uint64(tp.P.Const))
		sorted := ""
		if ex.src.PropOrdered() {
			switch {
			case !tp.S.Bound() && tp.S.Var != "":
				sorted = tp.S.Var
			case !tp.O.Bound() && tp.O.Var != "":
				sorted = tp.O.Var
			}
		}
		return stream{it: out, cols: cols, sorted: sorted}, nil
	}

	if ex.src.Partitioned() {
		props := ex.src.Cat().AllProps
		if a.Restrict {
			props = ex.src.Cat().Interesting
		}
		cols := slotCols(slots)
		asm := compileAssembly(slots, 2)
		open := func(i int) (iter, error) {
			it, err := st.propStream(props[i], tp.S.Const, tp.O.Const, needOf(slots))
			if err != nil {
				return nil, err
			}
			return st.gathered(it, asm, uint64(props[i])), nil
		}
		return stream{it: st.fanout(open, len(props), len(cols)), cols: cols}, nil
	}

	// Unbound property on a triple-store: one streamed scan, with the
	// properties-table restriction applied per batch as a hash semijoin
	// (build the 28-property set once, probe every row).
	need := needOf(slots)
	if a.Restrict {
		need.P = true
	}
	it := st.triplesStream(tp.S.Const, tp.O.Const, need)
	if a.Restrict {
		// The restriction set comes from the catalog; the materializing
		// path's one-time set construction (a 28-row properties-table scan
		// or hash build) is a constant the streaming path does not re-charge.
		set := ex.src.Cat().interestingSet()
		st.sops.StreamNode()
		it = st.filtered(it, 3, true, func(row []uint64) bool { return set[row[1]] })
	}
	return stream{it: st.gathered(it, compileAssembly(slots, 3), 0), cols: slotCols(slots)}, nil
}

// fanout streams the per-property parts of a partitioned access in property
// order — sequentially, or with a prefetching worker pool when the parallel
// mode is on. Union movement is charged as each batch passes downstream, and
// closing the fan-out early stops parts that were never reached (the
// streaming executor's saving on LIMIT plans; with workers the abandoned
// prefetch depth is scheduling-dependent, see ExecOptions.Workers).
// The w parameter is the width the union movement is charged at — the
// materializing fan-out unions before projecting, so it can exceed the
// emitted batch width (partitioned joins fuse the projection).
func (st *streamer) fanout(open func(i int) (iter, error), n, w int) iter {
	if st.ex.opt.Workers > 1 && n > 1 {
		return &parFanout{st: st, open: open, n: n, w: w}
	}
	return &seqFanout{st: st, open: open, n: n, w: w}
}

type seqFanout struct {
	st   *streamer
	open func(i int) (iter, error)
	n, w int
	cur  int
	it   iter
}

func (f *seqFanout) next() (*rel.Rel, error) {
	for {
		if f.it == nil {
			if f.cur >= f.n {
				return nil, nil
			}
			it, err := f.open(f.cur)
			if err != nil {
				return nil, err
			}
			// The union-all charges one operator dispatch per merged part.
			f.st.sops.StreamNode()
			f.st.partScans.Add(1)
			f.st.unionParts.Add(1)
			f.cur++
			f.it = it
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
		f.st.sops.StreamUnionRows(b.Len(), f.w)
		return b, nil
	}
}

func (f *seqFanout) close() {
	if f.it != nil {
		f.it.close()
		f.it = nil
	}
	f.cur = f.n
}

// parFanout prefetches the per-property parts over the worker pool while the
// consumer drains them in property order, so output stays byte-identical to
// the sequential fan-out. Each part gets a small buffered channel; closing
// the fan-out sets the stop flag, drains every channel (unblocking workers
// mid-send), and waits for the pool — the deadlock-free shutdown protocol.
type fanMsg struct {
	b   *rel.Rel
	err error
}

type parFanout struct {
	st      *streamer
	open    func(i int) (iter, error)
	n, w    int
	chans   []chan fanMsg
	stop    atomic.Bool
	wg      sync.WaitGroup
	cur     int
	last    *rel.Rel // the clone handed out by the previous next()
	started bool
	closed  bool
}

func (f *parFanout) start() {
	f.started = true
	f.st.parallel.Store(true)
	f.chans = make([]chan fanMsg, f.n)
	for i := range f.chans {
		f.chans[i] = make(chan fanMsg, 2)
	}
	workers := f.st.ex.opt.Workers
	if workers > f.n {
		workers = f.n
	}
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for i := range idx {
				f.runPart(i)
			}
		}()
	}
	go func() {
		for i := 0; i < f.n; i++ {
			idx <- i
		}
		close(idx)
	}()
}

func (f *parFanout) runPart(i int) {
	ch := f.chans[i]
	defer close(ch)
	if f.stop.Load() {
		return
	}
	it, err := f.open(i)
	if err != nil {
		ch <- fanMsg{err: err}
		return
	}
	defer it.close()
	// The union-all charges one operator dispatch per merged part.
	f.st.sops.StreamNode()
	f.st.partScans.Add(1)
	f.st.unionParts.Add(1)
	for {
		if f.stop.Load() {
			return
		}
		b, err := it.next()
		if err != nil {
			ch <- fanMsg{err: err}
			return
		}
		if b == nil {
			return
		}
		// The part refills b while the consumer lags: send a copy. Prefetched
		// batches waiting in the channel are live memory.
		cp := f.st.take(b.W)
		cp.Data = append(cp.Data, b.Data...)
		f.st.ex.mem.alloc(relBytes(cp))
		ch <- fanMsg{b: cp}
	}
}

func (f *parFanout) next() (*rel.Rel, error) {
	if !f.started {
		f.start()
	}
	f.st.give(f.last)
	f.last = nil
	for f.cur < f.n {
		msg, ok := <-f.chans[f.cur]
		if !ok {
			f.cur++
			continue
		}
		if msg.err != nil {
			return nil, msg.err
		}
		f.st.ex.mem.free(relBytes(msg.b))
		f.st.sops.StreamUnionRows(msg.b.Len(), f.w)
		f.last = msg.b
		return msg.b, nil
	}
	return nil, nil
}

func (f *parFanout) close() {
	if f.closed {
		return
	}
	f.closed = true
	if !f.started {
		return
	}
	f.stop.Store(true)
	for _, ch := range f.chans {
		for msg := range ch {
			f.st.ex.mem.free(relBytes(msg.b))
		}
	}
	f.wg.Wait()
}

// filterIter drops rows failing pred, charging per evaluated row (restrict
// selects the engine's interesting-properties restriction rate).
type filterIter struct {
	st       *streamer
	in       iter
	w        int
	pred     func([]uint64) bool
	restrict bool
	out      *rel.Rel
}

func (st *streamer) filtered(in iter, w int, restrict bool, pred func([]uint64) bool) iter {
	return &filterIter{st: st, in: in, w: w, pred: pred, restrict: restrict, out: st.take(w)}
}

func (f *filterIter) next() (*rel.Rel, error) {
	for {
		b, err := f.in.next()
		if b == nil || err != nil {
			return nil, err
		}
		n := b.Len()
		if f.restrict {
			f.st.sops.StreamRestrictRows(n, f.w)
		} else {
			f.st.sops.StreamFilterRows(n, f.w)
		}
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

func (st *streamer) buildFilter(in Node, mk func(stream) (func([]uint64) bool, error)) (stream, error) {
	s, err := st.build(in)
	if err != nil {
		return stream{}, err
	}
	pred, err := mk(s)
	if err != nil {
		s.it.close()
		return stream{}, err
	}
	st.sops.StreamNode()
	return stream{
		it:     st.filtered(s.it, len(s.cols), false, pred),
		cols:   s.cols,
		sorted: s.sorted,
	}, nil
}

// sharedVar finds the single join variable of two schemas, as the
// materializing join lowering does.
func sharedVar(lcols, rcols []string) (string, error) {
	rSet := map[string]bool{}
	for _, c := range rcols {
		rSet[c] = true
	}
	var shared []string
	for _, c := range lcols {
		if rSet[c] {
			shared = append(shared, c)
		}
	}
	if len(shared) != 1 {
		return "", fmt.Errorf("join of %v and %v shares %d variables, want 1", lcols, rcols, len(shared))
	}
	return shared[0], nil
}

// joinOutCols is the executor's join output schema: left columns, then the
// right's minus its copy of the join column.
func joinOutCols(lcols, rcols []string, rc int) []string {
	cols := make([]string, 0, len(lcols)+len(rcols)-1)
	cols = append(cols, lcols...)
	for i, c := range rcols {
		if i != rc {
			cols = append(cols, c)
		}
	}
	return cols
}

func (st *streamer) buildJoin(j *Join) (stream, error) {
	ex := st.ex
	if a, f := ex.partitionedJoinSide(j.R); a != nil {
		other, err := st.build(j.L)
		if err != nil {
			return stream{}, err
		}
		if ex.prof != nil {
			ex.prof.note(j, "partitioned hash")
		}
		return st.buildPartitionedJoin(other, a, f)
	}
	if a, f := ex.partitionedJoinSide(j.L); a != nil {
		other, err := st.build(j.R)
		if err != nil {
			return stream{}, err
		}
		if ex.prof != nil {
			ex.prof.note(j, "partitioned hash")
		}
		return st.buildPartitionedJoin(other, a, f)
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
	v, err := sharedVar(l.cols, r.cols)
	if err != nil {
		l.it.close()
		r.it.close()
		return stream{}, err
	}
	lc, _ := l.col(v)
	rc, _ := r.col(v)
	merge := l.sorted == v && r.sorted == v
	ex.tr.Joins = append(ex.tr.Joins, JoinChoice{Var: v, Merge: merge})
	if ex.prof != nil {
		if merge {
			ex.prof.note(j, "merge")
		} else {
			ex.prof.note(j, "hash")
		}
	}
	cols := joinOutCols(l.cols, r.cols, rc)
	st.sops.StreamNode()
	var it iter
	if merge {
		it = &mergeJoinIter{st: st, l: l.it, r: r.it, lc: lc, rc: rc, lw: len(l.cols), rw: len(r.cols), out: st.take(len(cols))}
	} else {
		it = &hashJoinIter{st: st, l: l.it, r: r.it, lc: lc, rc: rc, lw: len(l.cols), rw: len(r.cols), out: st.take(len(cols))}
	}
	sorted := ""
	if merge {
		sorted = v
	}
	return stream{it: it, cols: cols, sorted: sorted}, nil
}

// hashJoinIter replicates the materializing hash join's build-side choice
// and output order without knowing |R| in advance: it drains L (the build
// side's size is always known to an optimizer), then buffers R only until R
// proves at least as large as L — from then on R streams straight through
// the probe. When R exhausts smaller, the buffered R builds and the drained
// L probes in order. Either way the emitted order is probe-major with
// matches in build-insertion order: exactly the materializing operator's.
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
	// replays as views of one relation, cut where its batches ended (charges
	// round per batch) or, past cuts, every st.batch rows.
	probeRel *rel.Rel
	probeCur int
	cuts     []int
	view     rel.Rel
	bufBytes int64
	out      *rel.Rel
}

func (h *hashJoinIter) start() error {
	h.started = true
	lrel, err := drainAll(h.l, h.lw)
	if err != nil {
		return err
	}
	h.hold(relBytes(lrel))
	nl := lrel.Len()
	if nl == 0 {
		// No row can join; the streaming executor closes R unread (the
		// materializing one still scans it — an allowed charge divergence).
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
		rbuf.Data = append(rbuf.Data, b.Data...)
		h.cuts = append(h.cuts, rbuf.Len())
	}
	// R strictly smaller builds (insertion order = R order) and the drained L
	// probes in its order; otherwise L builds and R probes, its buffered head
	// first and then the live tail.
	h.buildIsL = rbuf.Len() >= nl
	if h.buildIsL {
		h.build, h.probeRel = lrel, rbuf
		h.ht = rel.NewJoinIndex(lrel, h.lc)
	} else {
		h.build, h.probeRel, h.cuts = rbuf, lrel, nil
		h.ht = rel.NewJoinIndex(rbuf, h.rc)
	}
	// The table's buckets are live alongside the buffered rows.
	h.hold(int64(h.build.Len()) * 16)
	h.st.sops.StreamHashBuildRows(h.build.Len(), h.build.W)
	return nil
}

func (h *hashJoinIter) hold(n int64) {
	h.st.ex.mem.alloc(n)
	h.bufBytes += n
}

func (h *hashJoinIter) release() {
	h.st.ex.mem.free(h.bufBytes)
	h.bufBytes = 0
	h.ht, h.build, h.probeRel = nil, nil, nil
}

// nextProbe returns the next probe-side batch, or nil at exhaustion.
func (h *hashJoinIter) nextProbe() (*rel.Rel, error) {
	if p := h.probeRel; h.probeCur < p.Len() {
		hi := min(h.probeCur+h.st.batch, p.Len())
		if len(h.cuts) > 0 {
			hi, h.cuts = h.cuts[0], h.cuts[1:]
		}
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
		h.st.sops.StreamHashProbeRows(n, pb.W)
		reuse(h.out)
		for i := 0; i < n; i++ {
			prow := pb.Row(i)
			for bi := h.ht.First(prow[pc]); bi >= 0; bi = h.ht.Next(bi) {
				brow := h.build.Row(bi)
				if h.buildIsL {
					appendJoinRow(h.out, brow, prow, h.rc)
				} else {
					appendJoinRow(h.out, prow, brow, h.rc)
				}
			}
		}
		if h.out.Len() > 0 {
			// Charged at the materializing join's pre-projection width; the
			// streaming operator fuses the free projection.
			h.st.sops.StreamJoinEmitRows(h.out.Len(), h.lw+h.rw)
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

// buildLeftJoin streams SPARQL's OPTIONAL: the optional (right) side builds
// — it must be complete before any left row can be declared unmatched — and
// the required (left) side streams through the probe in order, so left
// ordering survives, as in the materializing operator.
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
	v, err := sharedVar(l.cols, r.cols)
	if err != nil {
		l.it.close()
		r.it.close()
		return stream{}, err
	}
	lc, _ := l.col(v)
	rc, _ := r.col(v)
	st.ex.tr.Joins = append(st.ex.tr.Joins, JoinChoice{Var: v, Merge: false})
	if st.ex.prof != nil {
		st.ex.prof.note(j, "hash")
	}
	cols := joinOutCols(l.cols, r.cols, rc)
	st.sops.StreamNode()
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
	rrel, err := drainAll(j.r, j.rw)
	if err != nil {
		return err
	}
	j.build = rrel
	j.bufBytes = relBytes(rrel) + int64(rrel.Len())*16
	j.st.ex.mem.alloc(j.bufBytes)
	j.ht = rel.NewJoinIndex(rrel, j.rc)
	j.st.sops.StreamHashBuildRows(rrel.Len(), j.rw)
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
	j.st.sops.StreamHashProbeRows(n, j.lw)
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
	// Charged at the materializing join's pre-projection width.
	j.st.sops.StreamJoinEmitRows(j.out.Len(), j.lw+j.rw)
	return j.out, nil
}

func (j *leftJoinIter) close() {
	j.st.ex.mem.free(j.bufBytes)
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
		c.st.sops.StreamMergeRows(b.Len(), c.w)
		c.b, c.i = b, 0
	}
}

func (c *rowCur) advance() { c.i++ }

// mergeJoinIter is the streaming linear merge join over two inputs sorted on
// their join columns. Equal runs cross-product left-outer, matching the
// materializing operator's emission order; only the current right-side run
// is buffered, so memory stays bounded by the largest run.
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
			m.st.ex.mem.alloc(m.runBytes)
		}
	}
	if out.Len() == 0 {
		return nil, nil
	}
	// Charged at the materializing join's pre-projection width.
	m.st.sops.StreamJoinEmitRows(out.Len(), m.lw+m.rw)
	return out, nil
}

func (m *mergeJoinIter) endRun() {
	m.inRun = false
	m.run = m.run[:0]
	m.st.ex.mem.free(m.runBytes)
	m.runBytes = 0
}

func (m *mergeJoinIter) close() {
	m.done = true
	if m.runBytes > 0 {
		m.st.ex.mem.free(m.runBytes)
		m.runBytes = 0
	}
	m.st.give(m.out)
	m.out = nil
	m.l.close()
	m.r.close()
}

// buildPartitionedJoin streams the join pushdown into a partitioned fan-out:
// the non-access side drains once into a hash build (as PrepareHashJoin
// does), and every per-property scan streams through tag → filter → probe in
// property order, so the union of the per-table joins is emitted without
// ever materializing it.
func (st *streamer) buildPartitionedJoin(other stream, a *Access, f *FilterNe) (stream, error) {
	ex := st.ex
	tp := a.Pattern
	slots := ex.keptSlots(a)
	accCols := slotCols(slots)
	closeOther := func() { other.it.close() }
	v, err := sharedVar(other.cols, accCols)
	if err != nil {
		closeOther()
		return stream{}, err
	}
	oc, _ := other.col(v)
	ac := 0
	for i, c := range accCols {
		if c == v {
			ac = i
		}
	}
	fc := -1
	if f != nil {
		for i, c := range accCols {
			if c == f.Col {
				fc = i
			}
		}
		if fc < 0 {
			closeOther()
			return stream{}, fmt.Errorf("filter column %q not in %v", f.Col, accCols)
		}
	}
	props := ex.src.Cat().AllProps
	if a.Restrict {
		props = ex.src.Cat().Interesting
	}
	// Build once over the drained non-access side, as PrepareHashJoin does.
	orel, err := drainAll(other.it, len(other.cols))
	if err != nil {
		return stream{}, err
	}
	bufBytes := relBytes(orel) + int64(orel.Len())*16
	ex.mem.alloc(bufBytes)
	st.sops.StreamNode()
	st.sops.StreamHashBuildRows(orel.Len(), len(other.cols))
	ex.tr.Joins = append(ex.tr.Joins, JoinChoice{Var: v, Merge: false})
	cols := make([]string, 0, len(other.cols)+len(accCols)-1)
	cols = append(cols, other.cols...)
	for i, c := range accCols {
		if i != ac {
			cols = append(cols, c)
		}
	}
	if orel.Len() == 0 {
		// Nothing can join; skip the fan-out entirely (the materializing
		// executor still scans every table — an allowed charge divergence).
		ex.mem.free(bufBytes)
		return stream{it: emptyIter{}, cols: cols}, nil
	}
	ht := rel.NewJoinIndex(orel, oc)
	asm := compileAssembly(slots, 2)
	// Fused-step profiles: the access (and filter) never stream standalone,
	// so count their per-part rows through atomics (prefetch workers pull
	// the arms concurrently) and fold the totals in at finish().
	var accRows, accBatches, filtRows, filtBatches atomic.Int64
	if ex.prof != nil {
		ex.profileFusedStream(a, f, &accRows, &accBatches, &filtRows, &filtBatches)
	}
	open := func(i int) (iter, error) {
		it, err := st.propStream(props[i], tp.S.Const, tp.O.Const, needOf(slots))
		if err != nil {
			return nil, err
		}
		tagged := st.gathered(it, asm, uint64(props[i]))
		if ex.prof != nil {
			tagged = &countIter{in: tagged, rows: &accRows, batches: &accBatches}
		}
		if fc >= 0 {
			st.sops.StreamNode()
			val := uint64(f.Value)
			tagged = st.filtered(tagged, len(accCols), false, func(row []uint64) bool { return row[fc] != val })
			if ex.prof != nil {
				tagged = &countIter{in: tagged, rows: &filtRows, batches: &filtBatches}
			}
		}
		st.sops.StreamNode() // the per-table probe dispatch
		return &partProbeIter{st: st, in: tagged, orel: orel, ht: ht, ac: ac, aw: len(accCols), out: st.take(len(cols))}, nil
	}
	// Union movement is charged at the materializing fan-out's
	// pre-projection width (the probe outputs before dropping the join col).
	fo := st.fanout(open, len(props), len(other.cols)+len(accCols))
	return stream{it: &releaseIter{in: fo, free: func() {
		ex.mem.free(bufBytes)
	}}, cols: cols}, nil
}

// partProbeIter probes tagged per-property batches against the shared build
// side, emitting build-row ++ probe-row (minus the access's join column) in
// probe-major order — Probe's order, with the executor's projection fused.
type partProbeIter struct {
	st   *streamer
	in   iter
	orel *rel.Rel
	ht   *rel.JoinIndex
	ac   int
	aw   int
	out  *rel.Rel
}

func (p *partProbeIter) next() (*rel.Rel, error) {
	for {
		b, err := p.in.next()
		if b == nil || err != nil {
			return nil, err
		}
		n := b.Len()
		p.st.sops.StreamHashProbeRows(n, p.aw)
		reuse(p.out)
		for i := 0; i < n; i++ {
			arow := b.Row(i)
			for oi := p.ht.First(arow[p.ac]); oi >= 0; oi = p.ht.Next(oi) {
				appendJoinRow(p.out, p.orel.Row(oi), arow, p.ac)
			}
		}
		if p.out.Len() > 0 {
			// Charged at the materializing probe's pre-projection width.
			p.st.sops.StreamJoinEmitRows(p.out.Len(), p.orel.W+p.aw)
			return p.out, nil
		}
	}
}

func (p *partProbeIter) close() {
	p.st.give(p.out)
	p.out = nil
	p.in.close()
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
	st.sops.StreamNode()
	it := &distinctIter{st: st, in: s.it, w: len(s.cols), seen: map[string]bool{}, out: st.take(len(s.cols))}
	return stream{it: it, cols: s.cols, sorted: s.sorted}, nil
}

// distinctIter keeps first occurrences in input order — both engines'
// Distinct semantics — with the seen-set carried across batches.
type distinctIter struct {
	st       *streamer
	in       iter
	w        int
	seen     map[string]bool
	keyBytes int64
	key      []byte
	out      *rel.Rel
}

func (d *distinctIter) next() (*rel.Rel, error) {
	for {
		b, err := d.in.next()
		if b == nil || err != nil {
			return nil, err
		}
		n := b.Len()
		d.st.sops.StreamDistinctRows(n, d.w)
		reuse(d.out)
		for i := 0; i < n; i++ {
			row := b.Row(i)
			buf := d.key[:0]
			for _, v := range row {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
			d.key = buf
			// Looked up without conversion: only a new key allocates.
			if !d.seen[string(buf)] {
				d.seen[string(buf)] = true
				kb := int64(len(buf)) + 16
				d.st.ex.mem.alloc(kb)
				d.keyBytes += kb
				d.out.Data = append(d.out.Data, row...)
			}
		}
		if d.out.Len() > 0 {
			return d.out, nil
		}
	}
}

func (d *distinctIter) close() {
	d.st.ex.mem.free(d.keyBytes)
	d.keyBytes = 0
	d.seen = nil
	d.st.give(d.out)
	d.out = nil
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
	if len(l.cols) != len(r.cols) {
		l.it.close()
		r.it.close()
		return stream{}, fmt.Errorf("union of %v and %v", l.cols, r.cols)
	}
	perm := make([]int, len(l.cols))
	for i, c := range l.cols {
		j, err := r.col(c)
		if err != nil {
			l.it.close()
			r.it.close()
			return stream{}, fmt.Errorf("union of %v and %v", l.cols, r.cols)
		}
		perm[i] = j
	}
	st.sops.StreamNode()
	// The right side's column order is aligned per batch when it differs.
	it := &unionIter{st: st, l: l.it, r: st.gathered(r.it, newGather(perm, nil, len(perm)), 0), w: len(l.cols)}
	return stream{it: it, cols: l.cols}, nil
}

// unionIter concatenates two inputs: left fully, then right.
type unionIter struct {
	st      *streamer
	l, r    iter
	w       int
	onRight bool
}

func (u *unionIter) next() (*rel.Rel, error) {
	for {
		var b *rel.Rel
		var err error
		if !u.onRight {
			b, err = u.l.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				u.onRight = true
				continue
			}
		} else {
			b, err = u.r.next()
			if b == nil || err != nil {
				return nil, err
			}
		}
		u.st.sops.StreamUnionRows(b.Len(), u.w)
		return b, nil
	}
}

func (u *unionIter) close() {
	u.l.close()
	u.r.close()
}

func (st *streamer) buildGroup(g *Group) (stream, error) {
	s, err := st.build(g.In)
	if err != nil {
		return stream{}, err
	}
	if len(g.Keys) == 0 || len(g.Keys) > 2 {
		s.it.close()
		return stream{}, fmt.Errorf("group on %d keys", len(g.Keys))
	}
	keys := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		if keys[i], err = s.col(k); err != nil {
			s.it.close()
			return stream{}, err
		}
	}
	st.sops.StreamNode()
	cols := append(append([]string(nil), g.Keys...), CountCol)
	it := &groupIter{st: st, in: s.it, keys: keys, w: len(s.cols)}
	return stream{it: it, cols: cols, sorted: g.Keys[0]}, nil
}

// groupIter is a pipeline breaker, but a compact one: it counts group sizes
// incrementally per batch — only the group table is buffered, never the
// input — then emits the sorted (keys..., count) rows both engines'
// GroupCount produce.
type groupIter struct {
	st       *streamer
	in       iter
	keys     []int
	w        int
	out      *chunkIter
	tabBytes int64
}

func (g *groupIter) start() error {
	counts := make(map[[2]uint64]uint64, 64)
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
		g.st.sops.StreamGroupRows(n, len(g.keys))
		for i := 0; i < n; i++ {
			row := b.Row(i)
			var k [2]uint64
			for j, c := range g.keys {
				k[j] = row[c]
			}
			if _, ok := counts[k]; !ok {
				g.st.ex.mem.alloc(40)
				g.tabBytes += 40
			}
			counts[k]++
		}
	}
	g.in.close()
	out := rel.NewCap(len(g.keys)+1, len(counts))
	for k, cnt := range counts {
		out.Data = append(append(out.Data, k[:len(g.keys)]...), cnt)
	}
	out.Sort()
	g.st.ex.mem.alloc(relBytes(out))
	g.tabBytes += relBytes(out)
	g.out = &chunkIter{st: g.st, rel: out, batch: g.st.batch}
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
	g.st.ex.mem.free(g.tabBytes)
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
		if idx[i], err = s.col(c); err != nil {
			s.it.close()
			return stream{}, err
		}
	}
	names := p.Cols
	if p.As != nil {
		if len(p.As) != len(p.Cols) {
			s.it.close()
			return stream{}, fmt.Errorf("project renames %d of %d columns", len(p.As), len(p.Cols))
		}
		names = p.As
	}
	sorted := ""
	for i, c := range p.Cols {
		if c == s.sorted {
			sorted = names[i]
		}
	}
	it := st.gathered(s.it, newGather(idx, nil, len(s.cols)), 0)
	return stream{it: it, cols: append([]string(nil), names...), sorted: sorted}, nil
}

func (st *streamer) buildTopN(t *TopN) (stream, error) {
	s, err := st.build(t.In)
	if err != nil {
		return stream{}, err
	}
	less, err := SortLess(t.Keys, s.cols, t.Ord)
	if err != nil {
		s.it.close()
		return stream{}, err
	}
	st.sops.StreamNode()
	if st.ex.prof != nil {
		if t.Limit >= 0 {
			st.ex.prof.note(t, "heap")
		} else {
			st.ex.prof.note(t, "sort")
		}
	}
	it := &topNIter{st: st, in: s.it, less: less, limit: t.Limit, w: len(s.cols)}
	return stream{it: it, cols: s.cols, sorted: ""}, nil
}

// topNIter is ORDER BY / LIMIT as a bounded heap: for limit k ≥ 0 it keeps
// the k least rows under less in a max-heap (worst at the root), charging
// exactly ceil(log2 k) comparisons per input row; the survivors sort at the
// end, which under the plan layer's total order reproduces the materializing
// full sort's first k rows byte for byte. A negative limit is plain ORDER BY
// — a full-sort breaker delegated to the engine's materializing TopN.
type topNIter struct {
	st      *streamer
	in      iter
	less    func(a, b []uint64) bool
	limit   int
	w       int
	started bool
	out     *chunkIter
	bufRel  *rel.Rel
	heap    [][]uint64
	bytes   int64
}

func (t *topNIter) start() error {
	t.started = true
	if t.limit < 0 {
		// Plain ORDER BY: nothing to terminate early, so drain and run the
		// engine's own sort (identical charges to the materializing path).
		in, err := drainAll(t.in, t.w)
		if err != nil {
			return err
		}
		t.bytes = relBytes(in)
		t.st.ex.mem.alloc(t.bytes)
		n := in.Len()
		t.st.ex.tr.TopNs = append(t.st.ex.tr.TopNs, TopNStat{
			Input: n, Limit: t.limit, Compares: sortCompares(n),
		})
		out := t.st.ex.ops.TopN(in, t.limit, t.less)
		t.bufRel = out
		t.st.ex.mem.alloc(relBytes(out))
		t.bytes += relBytes(out)
		t.out = &chunkIter{st: t.st, rel: out, batch: t.st.batch}
		return nil
	}
	if t.limit == 0 {
		// LIMIT 0 pulls nothing: close the input before it does any work.
		t.in.close()
		t.st.ex.tr.TopNs = append(t.st.ex.tr.TopNs, TopNStat{Limit: 0, Heap: true})
		t.out = &chunkIter{st: t.st, rel: rel.New(t.w), batch: t.st.batch}
		return nil
	}
	k := t.limit
	perRow := ceilLog2(k)
	input := 0
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
		input += n
		t.st.sops.StreamSortCompares(int64(n) * perRow)
		for i := 0; i < n; i++ {
			t.push(b.Row(i), k)
		}
	}
	t.in.close()
	rows := t.heap
	sort.Slice(rows, func(i, j int) bool { return t.less(rows[i], rows[j]) })
	out := rel.NewCap(t.w, len(rows))
	for _, row := range rows {
		out.Data = append(out.Data, row...)
	}
	t.st.sops.StreamEmitRows(out.Len(), t.w)
	t.st.ex.tr.TopNs = append(t.st.ex.tr.TopNs, TopNStat{
		Input: input, Limit: k, Compares: int64(input) * perRow, Heap: true,
	})
	t.bufRel = out
	t.st.ex.mem.alloc(relBytes(out))
	t.bytes += relBytes(out)
	t.out = &chunkIter{st: t.st, rel: out, batch: t.st.batch}
	t.heap = nil
	return nil
}

// push offers one row to the bounded max-heap of the k least rows.
func (t *topNIter) push(row []uint64, k int) {
	h := t.heap
	if len(h) < k {
		cp := append([]uint64(nil), row...)
		h = append(h, cp)
		t.st.ex.mem.alloc(int64(t.w) * 8)
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
	t.st.ex.mem.free(t.bytes)
	t.bytes = 0
	t.heap = nil
	t.bufRel = nil
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
// reaches the limit is copied out first. Truncation itself is free, exactly
// as in the materializing evalLimit.
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
