package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"

	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
	"blackswan/internal/simio"
)

// This file is the plan executor's surface: the interfaces a storage scheme
// implements, the options and trace of one execution, and the plan
// analysis. NewPlan walks a plan DAG once and records on the Plan what the
// lowering in stream.go needs and the plan alone decides: each node's
// executed column schema after projection pushdown, its parent count (a
// node with two is a shared subexpression, evaluated once), a join's one
// shared variable, and an access's kept slots and scan mask. A malformed
// plan fails there, before any scan opens, and a held plan — the serving
// layer caches them — executes without re-deriving any of it. The lowering
// makes the scheme's decisions, from declared physical properties:
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
	// not call it; the performance ledger (benchmark/, held fixed so its
	// figures stay comparable) times scans through it, as it passes
	// ExecOptions.Workers, so both stay until the ledger is revised.
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

// runQuery is Database.Run: the query's declarative plan, drained.
func runQuery(src PhysicalSource, q Query) (*rel.Rel, error) {
	p, err := PlanFor(q, src.Cat().Consts)
	if err != nil {
		return nil, err
	}
	out, _, _, err := p.Execute(context.Background(), src, ExecOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: %v: %w", q, err)
	}
	return out, nil
}

// ExecutePlan analyses and runs an arbitrary logical plan rooted at root. It
// returns the result relation, its column names (plan variable names, in
// output order), and the lowering trace.
func ExecutePlan(src PhysicalSource, root Node, opt ExecOptions) (*rel.Rel, []string, *Trace, error) {
	return ExecutePlanCtx(context.Background(), src, root, opt)
}

// ExecutePlanCtx is ExecutePlan with cancellation: NewPlan, then Execute.
func ExecutePlanCtx(ctx context.Context, src PhysicalSource, root Node, opt ExecOptions) (*rel.Rel, []string, *Trace, error) {
	p, err := NewPlan(root, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return p.Execute(ctx, src, opt)
}

// Execute lowers and runs the analysed plan on src — the one executor entry.
// The executor checks ctx while lowering each operator and at every batch a
// scan or buffered input hands on, so a cancelled or expired context aborts
// the plan there and returns ctx.Err(). A plan is read-only here: one held
// plan (the serving layer's cached one) executes on any number of sources
// at once, and pays no analysis.
func (p *Plan) Execute(ctx context.Context, src PhysicalSource, opt ExecOptions) (*rel.Rel, []string, *Trace, error) {
	st := &streamer{
		ctx:   ctx,
		src:   src,
		ops:   src.Ops(),
		plan:  p,
		tr:    &Trace{},
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
		n := len(p.nodes)
		st.prof = &profiler{store: st.ops.Store, mem: st.mem, plan: p, frames: make([]OpProfile, n), stack: make([]*OpProfile, 0, n)}
	}
	s, err := st.build(p.Root)
	if err != nil {
		return nil, nil, nil, err
	}
	out, err := st.drain(s.it, len(s.cols), true)
	if err != nil {
		return nil, nil, nil, err
	}
	st.tr.PeakBytes = st.mem.peak
	st.tr.Profile = st.prof.finish()
	return out, slices.Clone(s.cols), st.tr, nil
}

// shared is a drained shared subexpression: its rows, column names and the
// column they are known to ascend on ("" when unordered).
type shared struct {
	rel    *rel.Rel
	cols   []string
	sorted string
}

// NodeInfo is what the plan knows about one of its nodes: what the lowering
// needs that depends on the plan alone, and the optimizer's estimate. The
// per-node observers — profile frames, registry slots, labels — index by
// the node's number in the table (Plan.Nodes).
type NodeInfo struct {
	Node Node
	// EstRows is the optimizer's estimated output rows, -1 when the plan was
	// built without an estimate.
	EstRows float64
	// cols is the node's output schema as executed — after projection
	// pushdown, in plan order. (A partitioned join emits the same columns in
	// another order; the lowering tracks the order per stream.)
	cols []string
	// uses counts the node's parents: a shared subexpression has more than
	// one, and is evaluated once.
	uses int
	// v is a Join's or LeftJoin's one shared variable.
	v string
	// slots and need are an Access's kept slots and its scan's column mask.
	slots []slot
	need  ScanCols
}

// Nodes returns a copy of the plan's node table, children first: a node's
// number is its index, the root is last.
func (p *Plan) Nodes() []NodeInfo { return slices.Clone(p.nodes) }

// info is n's entry in the table.
func (p *Plan) info(n Node) *NodeInfo { return &p.nodes[p.index[n]] }

// NewPlan analyses the plan DAG rooted at root in one memoized walk and
// returns it ready to execute. The walk numbers each node once, children
// first, recording its logical schema and parent count; the demanded
// columns then flow parents-first over that order — the projection pushdown
// that lets column stores skip materializing unused columns — and the
// executed schemas, each access's kept slots and scan mask, and the checks
// follow children-first. est, when not nil, is each node's estimated output
// rows, read in that same order. A plan that breaks a schema rule fails
// here, before any scan opens: a join needs exactly one shared variable;
// filter, having, group, sort and project columns must exist; a group has
// one or two keys; renames match the projection's length; union branches
// carry the same columns. What depends on the scheme — the column order
// after a partitioned join, a restricted load missing a table — the lowering
// decides.
func NewPlan(root Node, est func(Node) float64) (*Plan, error) {
	p := &Plan{Root: root, index: map[Node]int{}}
	var full [][]string // the logical schemas, before pushdown
	var visit func(n Node) error
	visit = func(n Node) error {
		if i, ok := p.index[n]; ok {
			p.nodes[i].uses++
			return nil
		}
		for _, c := range children(n) {
			if err := visit(c); err != nil {
				return err
			}
		}
		var f []string
		if a, ok := n.(*Access); ok {
			f = slotCols(patternSlots(a.Pattern))
		} else if children(n) == nil {
			return fmt.Errorf("unknown plan node %T", n)
		} else {
			f = outCols(n, func(c Node) []string { return full[p.index[c]] })
		}
		p.index[n] = len(p.nodes)
		p.nodes = append(p.nodes, NodeInfo{Node: n, EstRows: -1, uses: 1})
		full = append(full, f)
		return nil
	}
	if err := visit(root); err != nil {
		return nil, err
	}

	// Demand, parents first. A node reached with columns passes its inputs
	// what its operator reads; one reached with none stops there, and an
	// access no demand reaches keeps every slot.
	demand := make([]map[string]bool, len(p.nodes)) // nil until a parent reaches the node
	add := func(n Node, vars ...string) {
		i := p.index[n]
		if demand[i] == nil {
			demand[i] = map[string]bool{}
		}
		for _, v := range vars {
			demand[i][v] = true
		}
	}
	fullOf := func(n Node) []string { return full[p.index[n]] }
	add(root, fullOf(root)...)
	for i := len(p.nodes) - 1; i >= 0; i-- {
		n, d := p.nodes[i].Node, demand[i]
		if len(d) == 0 {
			continue
		}
		kids := children(n)
		switch n.(type) {
		case *Join, *LeftJoin: // the demanded columns, and the shared ones on both sides
			lc, rc := fullOf(kids[0]), fullOf(kids[1])
			for _, c := range lc {
				if d[c] || slices.Contains(rc, c) {
					add(kids[0], c)
				}
			}
			for _, c := range rc {
				if d[c] || slices.Contains(lc, c) {
					add(kids[1], c)
				}
			}
		case *Distinct: // duplicate elimination depends on every column
			add(kids[0], fullOf(kids[0])...)
		case *Group, *Project:
			add(kids[0], reads(n)...)
		default: // row-preserving: every demanded column, and what it reads
			for _, c := range kids {
				add(c, append(slices.Collect(maps.Keys(d)), reads(n)...)...)
			}
		}
	}

	// Executed schemas, the checks and the estimates, children first.
	cols := func(c Node) []string { return p.info(c).cols }
	for i := range p.nodes {
		in := &p.nodes[i]
		if a, ok := in.Node.(*Access); ok {
			in.slots = keptSlots(patternSlots(a.Pattern), demand[i])
			in.cols, in.need = slotCols(in.slots), needOf(in.slots)
		} else {
			var err error
			if in.v, err = check(in.Node, cols); err != nil {
				return nil, err
			}
			in.cols = outCols(in.Node, cols)
		}
		if est != nil {
			in.EstRows = est(in.Node)
		}
	}
	return p, nil
}

// outCols is a node's output schema given its inputs' (cols).
func outCols(n Node, cols func(Node) []string) []string {
	switch x := n.(type) {
	case *Join, *LeftJoin:
		return joinCols(cols(children(n)[0]), cols(children(n)[1]))
	case *Group:
		return append(slices.Clone(x.Keys), CountCol)
	case *Project:
		if x.As != nil {
			return x.As
		}
		return x.Cols
	default:
		return cols(children(n)[0])
	}
}

// joinCols is the (outer) natural joins' output schema: the left columns,
// then the right's minus the shared ones.
func joinCols(l, r []string) []string {
	out := slices.Clone(l)
	for _, c := range r {
		if !slices.Contains(l, c) {
			out = append(out, c)
		}
	}
	return out
}

// reads is what a one-input operator reads of its input's columns.
func reads(n Node) []string {
	switch x := n.(type) {
	case *FilterNe:
		return []string{x.Col}
	case *FilterEqCols:
		return []string{x.A, x.B}
	case *FilterRange:
		return []string{x.Col}
	case *Having:
		return []string{x.Col}
	case *Group:
		return x.Keys
	case *Project:
		return x.Cols
	case *TopN:
		keys := make([]string, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = k.Col
		}
		return keys
	}
	return nil
}

// check proves a node's schema rules over its inputs' executed columns
// (cols), and returns a join's one shared variable.
func check(n Node, cols func(Node) []string) (string, error) {
	kids := children(n)
	switch x := n.(type) {
	case *Join, *LeftJoin:
		return sharedVar(cols(kids[0]), cols(kids[1]))
	case *Union:
		l, r := cols(x.L), cols(x.R)
		if len(l) != len(r) || slices.ContainsFunc(l, func(c string) bool { return !slices.Contains(r, c) }) {
			return "", fmt.Errorf("union of %v and %v", l, r)
		}
		return "", nil
	case *Group:
		if len(x.Keys) == 0 || len(x.Keys) > 2 {
			return "", fmt.Errorf("group on %d keys", len(x.Keys))
		}
	}
	in, what := cols(kids[0]), ""
	if _, ok := n.(*TopN); ok {
		what = "sort "
	}
	for _, c := range reads(n) {
		if !slices.Contains(in, c) {
			return "", fmt.Errorf("no %scolumn %q in %v", what, c, in)
		}
	}
	if x, ok := n.(*Project); ok && x.As != nil && len(x.As) != len(x.Cols) {
		return "", fmt.Errorf("project renames %d of %d columns", len(x.As), len(x.Cols))
	}
	return "", nil
}

// sharedVar finds the one variable two schemas share.
func sharedVar(l, r []string) (string, error) {
	var shared []string
	for _, c := range l {
		if slices.Contains(r, c) {
			shared = append(shared, c)
		}
	}
	if len(shared) != 1 {
		return "", fmt.Errorf("join of %v and %v shares %d variables, want 1", l, r, len(shared))
	}
	return shared[0], nil
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
	for _, sl := range slots {
		if !slices.Contains(cols, sl.name) {
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

// compileAssembly resolves an access's kept slots, whose columns are cols,
// against its scan rows: (s, o) under a constant property when inW is 2,
// (s, p, o) when 3.
func compileAssembly(slots []slot, cols []string, inW int) *gather {
	var src []int
	var eq [][2]int
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

// keptSlots prunes an access's variable slots to those the plan demands. A
// slot survives when its variable is demanded or repeats within the
// pattern (the repetition is an equality filter that must still apply).
// An access no demand reached keeps every slot; pruning never empties the
// slot list.
func keptSlots(slots []slot, demand map[string]bool) []slot {
	if demand == nil {
		return slots
	}
	var kept []slot
	for _, sl := range slots {
		if demand[sl.name] || slices.ContainsFunc(slots, func(o slot) bool { return o.name == sl.name && o.pos != sl.pos }) {
			kept = append(kept, sl)
		}
	}
	if len(kept) == 0 && len(slots) > 0 {
		kept = slots[:1]
	}
	return kept
}

// needOf derives the physical column mask from the surviving slots.
func needOf(slots []slot) ScanCols {
	var on [3]bool
	for _, sl := range slots {
		on[sl.pos] = true
	}
	return ScanCols{S: on[0], P: on[1], O: on[2]}
}

// partitionedJoinSide recognizes a join input that is an unbound-property
// access on a partitioned scheme (optionally behind a FilterNe), the shape
// eligible for join pushdown into the per-property fan-out.
func (st *streamer) partitionedJoinSide(n Node) (*Access, *FilterNe) {
	var f *FilterNe
	if x, ok := n.(*FilterNe); ok {
		if st.plan.info(x).uses > 1 {
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
	if st.plan.info(a).uses > 1 {
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
// schemes). Every key must name one of cols (NewPlan proves it of a plan).
func SortLess(keys []SortKey, cols []string, ord ValueSource) func(a, b []uint64) bool {
	type keyIdx struct {
		col   int
		desc  bool
		count bool
	}
	idx := make([]keyIdx, len(keys))
	for i, k := range keys {
		idx[i] = keyIdx{col: slices.Index(cols, k.Col), desc: k.Desc, count: k.Count}
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
	}
}
