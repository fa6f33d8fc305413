package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
	"blackswan/internal/simio"
)

// This file is the plan executor's surface: the interfaces a storage scheme
// implements, the options and trace of one execution, and the plan analysis
// (projection pushdown, shared subexpressions, access assembly) the lowering
// in stream.go builds on. The lowering decisions are made once, from
// declared physical properties:
//
//   - an Access with a bound property becomes one per-property scan;
//   - an Access with an unbound property becomes a union of per-property
//     scans on partitioned schemes (the paper's union proliferation, now
//     explicit in the plan) and a single filtered scan on triple-stores;
//   - a Join becomes a linear merge join when both inputs are known to be
//     subject-ordered (the SO-clustered vertical tables) and a hash join
//     otherwise;
//   - the restricted queries push the interesting-property list into the
//     access layer: partitioned schemes visit only those tables, triple
//     stores apply the properties-table restriction to one big scan.

// PhysicalOps is what the executor needs from an engine: the store its
// operators charge and the engine's price list. The operators themselves
// live once in stream.go, engine-agnostic; each charge prices n rows of
// width w at the engine's Rate for that operator class (streamer.charge).
type PhysicalOps struct {
	Store *simio.Store
	Rates *simio.Rates
	// HashJoin is the engine's standalone hash join of two relations; the
	// executor does not call it — the performance ledger's physical-layer
	// probe times it.
	HashJoin func(l, r *rel.Rel, lc, rc int) *rel.Rel
}

// rowOps and colOps are the two engines' PhysicalOps, shared by every
// scheme on that engine. A scheme builds its own once, at load: the
// HashJoin method value is an allocation.
func rowOps(e *rowstore.Engine) PhysicalOps {
	return PhysicalOps{Store: e.Store, Rates: &rowstore.Rates, HashJoin: e.HashJoin}
}

func colOps(e *colstore.Engine) PhysicalOps {
	return PhysicalOps{Store: e.Store, Rates: &colstore.Rates, HashJoin: e.HashJoinRel}
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

// PhysicalSource is the per-scheme physical access layer the executor
// lowers plans onto. It extends the pattern-level TripleSource with the
// property-partitioned scan path and the physical-design facts (ordering,
// partitioning) that drive operator selection. There is one physical scan
// form, the pull scan; a materialized scan is the pull scan opened with an
// unbounded batch and collected (stream_source.go).
type PhysicalSource interface {
	TripleSource

	// Cat returns the catalog the scheme was loaded with.
	Cat() Catalog
	// Props returns the property roster physically available (all
	// properties, except for the restricted C-Store load).
	Props() []rdf.ID
	// StreamProp scans the (subject, object) rows carrying property p, with
	// s and/or o optionally bound (rdf.NoID = unbound), as width-2 batches
	// of at most batchRows rows, charged as they are pulled — so a consumer
	// that stops early saves the tail's simulated CPU and I/O. need is the
	// executor's projection pushdown: column stores materialize only the
	// needed columns (unneeded ones read as zero), row stores read whole
	// tuples regardless — the paper's structural I/O difference between the
	// engines. It fails when p has no physical representation — the
	// restricted C-Store load answering a full-roster query.
	StreamProp(p, s, o rdf.ID, need ScanCols, batchRows int) (RelIter, error)
	// StreamTriples scans the (s, p, o) rows with s and/or o optionally
	// bound and the property unbound, as width-3 batches — the whole-table
	// access of the triple-stores, honouring the same projection pushdown
	// as StreamProp so column stores keep their late materialization.
	StreamTriples(s, o rdf.ID, need ScanCols, batchRows int) RelIter
	// ScanProp is StreamProp collected into one relation. The executor does
	// not call it; it remains, like ExecOptions.Workers, because the
	// performance ledger's physical-layer probes (benchmark/) time it
	// through this interface, and is the ledger PR's to remove.
	ScanProp(p, s, o rdf.ID, need ScanCols) (*rel.Rel, error)
	// PropOrdered reports whether StreamProp rows arrive ordered by their
	// first unbound position (subject-ascending for the common case) — true
	// for the SO-clustered vertical tables, enabling merge joins.
	PropOrdered() bool
	// PropSeekable reports whether a subject-bound StreamProp is an index
	// access, costing what it returns: what lets a join seek (Join.ProbeMax).
	PropSeekable() bool
	// Partitioned reports whether the scheme stores one physical table per
	// property; the executor then lowers unbound-property accesses to
	// per-property unions, reproducing the paper's plan shapes.
	Partitioned() bool
	// Ops returns the engine's store and price list.
	Ops() PhysicalOps
}

// ScanCols is the projection-pushdown mask of a scan: which physical
// columns must be materialized. StreamProp ignores P (the property is the
// scan key); StreamTriples honours all three.
type ScanCols struct {
	S, P, O bool
}

// AllScanCols materializes every column (the TripleSource-compatible
// behaviour).
func AllScanCols() ScanCols { return ScanCols{S: true, P: true, O: true} }

// ExecOptions selects the executor's configuration. There is one executor —
// the pull-based operators of stream.go — and two ways to schedule it.
type ExecOptions struct {
	// Workers is accepted and ignored: the executor runs every plan on the
	// calling goroutine. The field remains because the performance ledger
	// (benchmark/) passes 1, the only meaning it ever relied on.
	Workers int
	// Streaming selects the pipelined configuration: operators exchange
	// batches of BatchRows rows, and TopN/LIMIT terminate their inputs
	// early. The zero value is the drain configuration — the schedule of
	// the systems the paper measures, which finish every operator before the
	// next starts: the batch is unbounded, so each operator, scans included,
	// hands on its whole output in one pull. Results are byte-identical in
	// both; simulated CPU charges agree wherever both configurations do the
	// same work, and differ only by strategy (a scan abandoned early, column
	// read-ahead while further batches remain, how far a merge join
	// over-pulls its longer input).
	Streaming bool
	// BatchRows is the pipelined batch size in rows; 0 means
	// DefaultBatchRows. The drain configuration ignores it.
	BatchRows int
	// Profile turns on the per-operator collector: Trace.Profile carries
	// an OpProfile tree recording rows, batches, simulated CPU/IO, host
	// time and peak live bytes per plan node. Observation-only — results
	// and simulated charges are byte-identical with or without it.
	Profile bool
}

// JoinStrategy names the algorithm a join was lowered to (its profile note).
type JoinStrategy string

const (
	JoinHash            JoinStrategy = "hash"
	JoinMerge           JoinStrategy = "merge"
	JoinIndexProbe      JoinStrategy = "index probe"
	JoinPartitionedHash JoinStrategy = "partitioned hash"
)

// JoinChoice records one lowering decision for tests and diagnostics.
type JoinChoice struct {
	Var      string
	Strategy JoinStrategy
}

// Trace records how a plan was lowered: which join algorithms ran, and how
// wide the per-property fan-out was.
type Trace struct {
	// Joins lists the joins in lowering order.
	Joins []JoinChoice
	// PartitionScans counts per-property scans issued by unbound-property
	// accesses on partitioned schemes.
	PartitionScans int
	// UnionParts counts relations merged by access-level unions.
	UnionParts int
	// PeakBytes is the tracked peak of live intermediate-result bytes:
	// in-flight batches plus buffered operator state (hash-join builds,
	// group tables, TopN heaps, drained shared subexpressions) plus the
	// accumulating result.
	PeakBytes int64
	// SourceBatches counts scan batches pulled from the physical sources —
	// early-termination tests assert a LIMIT-n plan pulls O(n) rows' worth
	// of batches, not the whole input.
	SourceBatches int
	// TopNs records each executed TopN: input rows, limit, and the
	// comparisons charged — n·ceil(log2 k) for the bounded heap of a
	// limit k, n·ceil(log2 n) for the full sort of a plain ORDER BY.
	TopNs []TopNStat
	// Profile is the per-operator EXPLAIN ANALYZE tree, present only when
	// ExecOptions.Profile was set.
	Profile *OpProfile
}

// TopNStat records the sort-comparison cost of one executed TopN node.
type TopNStat struct {
	Input    int
	Limit    int
	Compares int64
	// Heap reports the bounded-heap strategy (vs. a full sort).
	Heap bool
}

// Execute runs one benchmark query through the declarative plan layer, in
// the drain configuration.
func Execute(src PhysicalSource, q Query) (*rel.Rel, error) {
	return ExecuteOpts(src, q, ExecOptions{})
}

// ExecuteOpts is Execute with an explicit configuration.
func ExecuteOpts(src PhysicalSource, q Query, opt ExecOptions) (*rel.Rel, error) {
	out, _, err := ExecuteTraced(src, q, opt)
	return out, err
}

// ExecuteTraced additionally returns the lowering trace.
func ExecuteTraced(src PhysicalSource, q Query, opt ExecOptions) (*rel.Rel, *Trace, error) {
	p, err := PlanFor(q, src.Cat().Consts)
	if err != nil {
		return nil, nil, err
	}
	out, _, tr, err := ExecutePlan(src, p.Root, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %v: %w", q, err)
	}
	if out.W != q.ResultWidth() {
		return nil, nil, fmt.Errorf("core: %v plan produced width %d, want %d", q, out.W, q.ResultWidth())
	}
	return out, tr, nil
}

// ExecutePlan lowers and runs an arbitrary logical plan rooted at root —
// the entry point the BGP compiler uses. It returns the result relation,
// its column names (plan variable names, in output order), and the lowering
// trace. Unlike ExecuteTraced it makes no benchmark-specific checks: any
// well-formed operator DAG over the plan vocabulary executes.
func ExecutePlan(src PhysicalSource, root Node, opt ExecOptions) (*rel.Rel, []string, *Trace, error) {
	return ExecutePlanCtx(context.Background(), src, root, opt)
}

// ExecutePlanCtx is ExecutePlan with cancellation: the executor checks ctx
// while lowering each operator and at every batch a scan or buffered input
// hands on, so a cancelled or expired context aborts the plan there and
// returns ctx.Err(). This is the entry point of the serving layer, which
// threads each client's request context through here.
func ExecutePlanCtx(ctx context.Context, src PhysicalSource, root Node, opt ExecOptions) (*rel.Rel, []string, *Trace, error) {
	st := &streamer{
		ctx:   ctx,
		src:   src,
		ops:   src.Ops(),
		tr:    &Trace{},
		memo:  make(map[Node]shared),
		req:   requiredVars(root),
		uses:  useCounts(root),
		mem:   &memTracker{},
		batch: opt.BatchRows,
	}
	if st.batch <= 0 {
		st.batch = DefaultBatchRows
	}
	if !opt.Streaming {
		// The drain configuration, whole: one unbounded batch per operator.
		// No operator, cursor or reader knows which configuration it runs in.
		st.batch = math.MaxInt
	}
	if opt.Profile {
		st.prof = newProfiler(st.ops.Store, st.mem)
	}
	s, err := st.build(root)
	if err != nil {
		return nil, nil, nil, err
	}
	out, err := st.drain(s.it, len(s.cols), true)
	if err != nil {
		return nil, nil, nil, err
	}
	st.tr.PeakBytes = st.mem.peak
	st.tr.Profile = st.prof.finish()
	return out, s.cols, st.tr, nil
}

// shared is a drained shared subexpression: its rows, column names and the
// column they are known to ascend on ("" when unordered).
type shared struct {
	rel    *rel.Rel
	cols   []string
	sorted string
}

// useCounts returns how many parents reference each node — shared
// subexpressions have more than one, and must be evaluated exactly once.
func useCounts(root Node) map[Node]int {
	uses := map[Node]int{}
	var walk func(n Node)
	walk = func(n Node) {
		uses[n]++
		if uses[n] > 1 {
			return
		}
		for _, c := range children(n) {
			walk(c)
		}
	}
	walk(root)
	return uses
}

// columnsOf returns a node's full logical output schema (before any
// projection pushdown), mirroring the executor's runtime column layout.
func columnsOf(n Node) []string {
	switch x := n.(type) {
	case *Access:
		return slotCols(patternSlots(x.Pattern))
	case *Join:
		return joinColumns(x.L, x.R)
	case *LeftJoin:
		return joinColumns(x.L, x.R)
	case *FilterNe:
		return columnsOf(x.In)
	case *FilterEqCols:
		return columnsOf(x.In)
	case *FilterRange:
		return columnsOf(x.In)
	case *Distinct:
		return columnsOf(x.In)
	case *Union:
		return columnsOf(x.L)
	case *Group:
		return append(append([]string(nil), x.Keys...), CountCol)
	case *Having:
		return columnsOf(x.In)
	case *Project:
		if x.As != nil {
			return x.As
		}
		return x.Cols
	case *TopN:
		return columnsOf(x.In)
	case *Limit:
		return columnsOf(x.In)
	default:
		return nil
	}
}

// joinColumns is the shared output schema of the (outer) natural joins:
// the left columns, then the right's minus the shared ones.
func joinColumns(L, R Node) []string {
	l, r := columnsOf(L), columnsOf(R)
	inL := map[string]bool{}
	for _, c := range l {
		inL[c] = true
	}
	out := append([]string(nil), l...)
	for _, c := range r {
		if !inL[c] {
			out = append(out, c)
		}
	}
	return out
}

// requiredVars computes, for every node of the plan DAG, which of its
// output columns the rest of the plan consumes — the projection pushdown
// that lets column-store accesses skip materializing unused columns, as
// the hand-written column-at-a-time plans did.
func requiredVars(root Node) map[Node]map[string]bool {
	req := map[Node]map[string]bool{}
	var add func(n Node, vars []string)
	add = func(n Node, vars []string) {
		m := req[n]
		if m == nil {
			m = map[string]bool{}
			req[n] = m
		}
		changed := false
		for _, v := range vars {
			if !m[v] {
				m[v] = true
				changed = true
			}
		}
		if !changed {
			return
		}
		all := make([]string, 0, len(m))
		for v := range m {
			all = append(all, v)
		}
		keep := func(cols []string) []string {
			out := make([]string, 0, len(cols))
			for _, c := range cols {
				if m[c] {
					out = append(out, c)
				}
			}
			return out
		}
		joinSides := func(L, R Node) {
			lc, rc := columnsOf(L), columnsOf(R)
			rSet := map[string]bool{}
			for _, c := range rc {
				rSet[c] = true
			}
			var shared []string
			for _, c := range lc {
				if rSet[c] {
					shared = append(shared, c)
				}
			}
			add(L, append(keep(lc), shared...))
			add(R, append(keep(rc), shared...))
		}
		switch x := n.(type) {
		case *Access:
		case *Join:
			joinSides(x.L, x.R)
		case *LeftJoin:
			joinSides(x.L, x.R)
		case *FilterNe:
			add(x.In, append(all, x.Col))
		case *FilterEqCols:
			add(x.In, append(all, x.A, x.B))
		case *FilterRange:
			add(x.In, append(all, x.Col))
		case *Distinct:
			// Duplicate elimination depends on every column.
			add(x.In, columnsOf(x.In))
		case *Union:
			add(x.L, all)
			add(x.R, all)
		case *Group:
			add(x.In, x.Keys)
		case *Having:
			add(x.In, append(all, x.Col))
		case *Project:
			add(x.In, x.Cols)
		case *TopN:
			vs := all
			for _, k := range x.Keys {
				vs = append(vs, k.Col)
			}
			add(x.In, vs)
		case *Limit:
			add(x.In, all)
		}
	}
	add(root, columnsOf(root))
	return req
}

// slot is one unbound, named position of a triple pattern.
type slot struct {
	name string
	pos  int // 0=s 1=p 2=o
}

func patternSlots(tp TriplePattern) []slot {
	var out []slot
	for i, ref := range []TermRef{tp.S, tp.P, tp.O} {
		if !ref.Bound() && ref.Var != "" {
			out = append(out, slot{ref.Var, i})
		}
	}
	return out
}

// slotCols returns the distinct variable names of a slot list in first-
// occurrence order — the column schema an access over those slots produces.
func slotCols(slots []slot) []string {
	var cols []string
	seen := map[string]bool{}
	for _, sl := range slots {
		if !seen[sl.name] {
			seen[sl.name] = true
			cols = append(cols, sl.name)
		}
	}
	return cols
}

// gather is a compiled per-row column mapping: output column i reads input
// column src[i], or the constant handed to run where src[i] < 0, and a row
// survives only if every eq pair of inputs agrees. The one form serves
// access assembly (slot → variable column, the property as the constant,
// a repeated variable as an eq pair), projection and union alignment.
type gather struct {
	src  []int
	eq   [][2]int
	pass bool // the identity over whole input rows: batches pass through
}

func newGather(src []int, eq [][2]int, inW int) *gather {
	g := &gather{src: src, eq: eq, pass: len(eq) == 0 && len(src) == inW}
	for i, s := range src {
		g.pass = g.pass && s == i
	}
	return g
}

// compileAssembly resolves an access's kept slots against its scan rows:
// (s, o) under a constant property when inW is 2, (s, p, o) when 3.
func compileAssembly(slots []slot, inW int) *gather {
	var src []int
	var eq [][2]int
	cols := slotCols(slots)
	for _, sl := range slots {
		in := sl.pos
		if inW == 2 {
			in = [3]int{0, -1, 1}[sl.pos]
		}
		ci := 0
		for cols[ci] != sl.name {
			ci++
		}
		if ci < len(src) {
			eq = append(eq, [2]int{src[ci], in})
		} else {
			src = append(src, in)
		}
	}
	return newGather(src, eq, inW)
}

// run maps b's rows into out, emptied, one output column at a time, then
// drops the rows an eq pair rejects; it returns out — or b itself, untouched,
// when the mapping is the identity.
func (g *gather) run(out, b *rel.Rel, k uint64) *rel.Rel {
	if g.pass {
		return b
	}
	reuse(out)
	n, w := b.Len(), len(g.src)
	d := slices.Grow(out.Data, n*w)[:n*w]
	for j, s := range g.src {
		in, i, step := b.Data, s, b.W
		if s < 0 {
			in, i, step = []uint64{k}, 0, 0 // the constant: a copy that does not advance
		}
		for o := j; o < len(d); i, o = i+step, o+w {
			d[o] = in[i]
		}
	}
	if len(g.eq) > 0 {
		val := func(row []uint64, s int) uint64 {
			if s < 0 {
				return k
			}
			return row[s]
		}
		o := 0
	rows:
		for i := 0; i < n; i++ {
			row := b.Row(i)
			for _, e := range g.eq {
				if val(row, e[0]) != val(row, e[1]) {
					continue rows
				}
			}
			o += copy(d[o:], d[i*w:(i+1)*w])
		}
		d = d[:o]
	}
	out.Data = d
	return out
}

// keptSlots prunes an access's variable slots to those the plan consumes.
// A slot survives when its variable is demanded downstream or repeats
// within the pattern (the repetition is an equality filter that must still
// apply). Pruning never empties the slot list: a benchmark access always
// feeds at least one demanded variable.
func (st *streamer) keptSlots(a *Access) []slot {
	slots := patternSlots(a.Pattern)
	req := st.req[a]
	if req == nil {
		return slots
	}
	count := map[string]int{}
	for _, sl := range slots {
		count[sl.name]++
	}
	kept := make([]slot, 0, len(slots))
	for _, sl := range slots {
		if req[sl.name] || count[sl.name] > 1 {
			kept = append(kept, sl)
		}
	}
	if len(kept) == 0 {
		kept = slots[:1]
	}
	return kept
}

// needOf derives the physical column mask from the surviving slots.
func needOf(slots []slot) ScanCols {
	var need ScanCols
	for _, sl := range slots {
		switch sl.pos {
		case 0:
			need.S = true
		case 1:
			need.P = true
		case 2:
			need.O = true
		}
	}
	return need
}

// partitionedJoinSide recognizes a join input that is an unbound-property
// access on a partitioned scheme (optionally behind a FilterNe), the shape
// eligible for join pushdown into the per-property fan-out.
func (st *streamer) partitionedJoinSide(n Node) (*Access, *FilterNe) {
	var f *FilterNe
	if x, ok := n.(*FilterNe); ok {
		if st.uses[x] > 1 {
			return nil, nil
		}
		f = x
		n = x.In
	}
	a, ok := n.(*Access)
	if !ok || a.Pattern.P.Bound() || !st.src.Partitioned() {
		return nil, nil
	}
	// A shared subexpression must be drained exactly once through the memo,
	// never consumed by pushdown (which bypasses it).
	if st.uses[a] > 1 {
		return nil, nil
	}
	return a, f
}

// profileFused opens the profile frames of a partitioned join's fused access
// (and optional filter) under the join being built. Neither runs standalone
// — their work is charged to the join — so the frames carry only the rows
// and batches that flow through each fused step, which countIter tallies as
// the per-property arms are pulled.
func (st *streamer) profileFused(a *Access, f *FilterNe) (ap, fp *OpProfile) {
	if f != nil {
		fp = st.prof.enter(f)
		fp.Note = "fused"
		defer st.prof.exit()
	}
	ap = st.prof.enter(a)
	ap.Note = "fused"
	st.prof.exit()
	return ap, fp
}

// RangePred builds the per-value predicate of a FilterRange node: true for
// numeric literals inside the node's interval, false for everything else
// (including NULL). Exported so engines' tests and the oracle can assert
// against the one shared definition.
func RangePred(f *FilterRange) func(uint64) bool {
	return func(v uint64) bool {
		x, ok := f.Num.NumericValue(rdf.ID(v))
		if !ok {
			return false
		}
		if x < f.Lo || (x == f.Lo && !f.IncLo) {
			return false
		}
		if x > f.Hi || (x == f.Hi && !f.IncHi) {
			return false
		}
		return true
	}
}

// SortLess builds the total row order of a TopN node over the given column
// schema: per key, NULLs first, numeric literals next by value, all other
// terms by their N-Triples rendering (Desc reverses the key); rows equal
// under every key fall back to raw ascending value comparison, which makes
// the order total and scheme-independent (one dictionary serves all
// schemes).
func SortLess(keys []SortKey, cols []string, ord ValueSource) (func(a, b []uint64) bool, error) {
	type keyIdx struct {
		col   int
		desc  bool
		count bool
	}
	idx := make([]keyIdx, len(keys))
	for i, k := range keys {
		ci := -1
		for j, c := range cols {
			if c == k.Col {
				ci = j
				break
			}
		}
		if ci < 0 {
			return nil, fmt.Errorf("no sort column %q in %v", k.Col, cols)
		}
		idx[i] = keyIdx{col: ci, desc: k.Desc, count: k.Count}
	}
	// cmpID compares two dictionary identifiers by value: NULL < numeric
	// literals (by value) < everything else (by rendering). Resolved keys
	// are memoized per identifier — values repeat across rows, and a sort
	// makes O(n log n) comparisons, so parsing and rendering must not
	// happen per comparison.
	type sortVal struct {
		class int
		num   float64
		str   string
	}
	cache := map[uint64]sortVal{}
	classOf := func(v uint64) (int, float64, string) {
		if k, ok := cache[v]; ok {
			return k.class, k.num, k.str
		}
		var k sortVal
		if v != uint64(rdf.NoID) {
			if x, ok := ord.NumericValue(rdf.ID(v)); ok {
				k = sortVal{class: 1, num: x}
			} else {
				k = sortVal{class: 2, str: ord.SortString(rdf.ID(v))}
			}
		}
		cache[v] = k
		return k.class, k.num, k.str
	}
	cmpID := func(a, b uint64) int {
		if a == b {
			return 0
		}
		ca, na, sa := classOf(a)
		cb, nb, sb := classOf(b)
		switch {
		case ca != cb:
			if ca < cb {
				return -1
			}
			return 1
		case ca == 1 && na != nb:
			if na < nb {
				return -1
			}
			return 1
		case ca == 2 && sa != sb:
			if sa < sb {
				return -1
			}
			return 1
		}
		return 0
	}
	return func(a, b []uint64) bool {
		for _, k := range idx {
			var c int
			if k.count {
				switch {
				case a[k.col] < b[k.col]:
					c = -1
				case a[k.col] > b[k.col]:
					c = 1
				}
			} else {
				c = cmpID(a[k.col], b[k.col])
			}
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		// Total-order fallback: raw values, always ascending.
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}, nil
}
