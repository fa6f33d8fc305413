package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// This file is the shared plan executor: it lowers the logical plans of
// plan.go onto any storage scheme through the PhysicalSource interface.
// The lowering decisions the four hand-written query matrices used to make
// implicitly are made here, once, from declared physical properties:
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

// PhysicalOps is the relational operator vocabulary the executor needs
// from an engine. The row-store engine implements it directly; the
// column-store engine provides it through colstore.Relational, which
// decomposes each operator into vector primitives.
type PhysicalOps interface {
	HashJoin(l, r *rel.Rel, lc, rc int) *rel.Rel
	MergeJoin(l, r *rel.Rel, lc, rc int) *rel.Rel
	// LeftJoin is the left outer hash join: every left row survives, and
	// unmatched rows carry nullVal in the right side's columns. Left input
	// order is preserved, so ordering properties survive the operator.
	LeftJoin(l, r *rel.Rel, lc, rc int, nullVal uint64) *rel.Rel
	FilterEq(r *rel.Rel, col int, v uint64) *rel.Rel
	FilterNe(r *rel.Rel, col int, v uint64) *rel.Rel
	FilterIn(r *rel.Rel, col int, set map[uint64]bool) *rel.Rel
	// FilterEqCol keeps rows whose columns a and b are equal — the residual
	// predicate of cyclic basic graph patterns.
	FilterEqCol(r *rel.Rel, a, b int) *rel.Rel
	// FilterPred keeps rows whose col value satisfies pred — the engine
	// charges per evaluated tuple/value, the predicate itself (numeric
	// range over dictionary values) comes resolved from the plan layer.
	FilterPred(r *rel.Rel, col int, pred func(uint64) bool) *rel.Rel
	// TopN sorts r under less (a total order supplied by the plan layer)
	// and keeps the first limit rows; limit < 0 keeps all.
	TopN(r *rel.Rel, limit int, less func(a, b []uint64) bool) *rel.Rel
	GroupCount(r *rel.Rel, keyCols ...int) *rel.Rel
	// GroupCountPar is GroupCount with the counting chunked over workers
	// (per-chunk local tallies, merged, then sorted); charges and output
	// are identical to GroupCount, only host time changes.
	GroupCountPar(r *rel.Rel, workers int, keyCols ...int) *rel.Rel
	HavingGT(r *rel.Rel, col int, min uint64) *rel.Rel
	Union(a, b *rel.Rel) *rel.Rel
	UnionAll(w int, parts []*rel.Rel) *rel.Rel
	// UnionAllPar is UnionAll with the tuple movement fanned over workers;
	// charges and output are identical to UnionAll, only host time changes.
	UnionAllPar(w int, parts []*rel.Rel, workers int) *rel.Rel
	Distinct(r *rel.Rel) *rel.Rel
	// PrepareHashJoin hashes a build side once for repeated probing — the
	// partitioned joins probe every property table against one build.
	PrepareHashJoin(l *rel.Rel, lc int) rel.PreparedJoin
}

// PhysicalSource is the per-scheme physical access layer the executor
// lowers plans onto. It extends the pattern-level TripleSource with the
// property-partitioned scan path and the physical-design facts (ordering,
// partitioning) that drive operator selection.
type PhysicalSource interface {
	TripleSource

	// Cat returns the catalog the scheme was loaded with.
	Cat() Catalog
	// Props returns the property roster physically available (all
	// properties, except for the restricted C-Store load).
	Props() []rdf.ID
	// ScanProp returns the (subject, object) rows carrying property p,
	// with s and/or o optionally bound (rdf.NoID = unbound), as a width-2
	// relation. need is the executor's projection pushdown: column stores
	// materialize only the needed columns (unneeded ones read as zero),
	// row stores read whole tuples regardless — the paper's structural
	// I/O difference between the engines. It fails when p has no physical
	// representation — the restricted C-Store load answering a
	// full-roster query.
	ScanProp(p, s, o rdf.ID, need ScanCols) (*rel.Rel, error)
	// ScanTriples returns the (s, p, o) rows with s and/or o optionally
	// bound and the property unbound — the whole-table access of the
	// triple-stores, honouring the same projection pushdown as ScanProp so
	// column stores keep their late materialization.
	ScanTriples(s, o rdf.ID, need ScanCols) *rel.Rel
	// PropOrdered reports whether ScanProp results arrive ordered by their
	// first unbound position (subject-ascending for the common case) — true
	// for the SO-clustered vertical tables, enabling merge joins.
	PropOrdered() bool
	// Partitioned reports whether the scheme stores one physical table per
	// property; the executor then lowers unbound-property accesses to
	// per-property unions, reproducing the paper's plan shapes.
	Partitioned() bool
	// RestrictProps applies the interesting-property restriction to the
	// pCol column of a scan result — the "properties table" semijoin of
	// the restricted queries on non-partitioned schemes.
	RestrictProps(rows *rel.Rel, pCol int) *rel.Rel
	// Ops returns the engine's physical operator set.
	Ops() PhysicalOps
}

// ScanCols is the projection-pushdown mask of a scan: which physical
// columns must be materialized. ScanProp ignores P (the property is the
// scan key); ScanTriples honours all three.
type ScanCols struct {
	S, P, O bool
}

// AllScanCols materializes every column (the TripleSource-compatible
// behaviour).
func AllScanCols() ScanCols { return ScanCols{S: true, P: true, O: true} }

// ExecOptions tunes plan execution.
type ExecOptions struct {
	// Workers > 1 fans per-property scans out over a worker pool on
	// partitioned schemes. Results are merged in property order, so the
	// output is byte-identical to sequential execution, and charge
	// accounting is interleaving-independent: CPU charges are order-
	// independent sums, and the store's seek detection is per file, so
	// fully-drained plans produce the same simulated cold timings under
	// any scheduling. The one exception is a streaming plan that
	// terminates a parallel fan-out early: how far the prefetch workers
	// got is scheduling-dependent, so charges of abandoned work can vary —
	// results never do. Use Workers <= 1 when regenerating timing tables
	// for LIMIT plans.
	Workers int
	// Streaming selects the pull-based batched executor: operators
	// exchange fixed-size row batches, pipelines run without
	// materialization barriers, and TopN/LIMIT terminate their inputs
	// early. Results are byte-identical to the materializing executor on
	// every scheme; simulated charges may differ where the execution
	// strategy genuinely differs (heap TopN, early-terminated scans,
	// batch-granular I/O requests). Ignored when the engine's operator set
	// does not implement StreamOps.
	Streaming bool
	// BatchRows is the streaming batch size in rows; 0 means
	// DefaultBatchRows.
	BatchRows int
	// Profile turns on the per-operator collector: Trace.Profile carries
	// an OpProfile tree recording rows, batches, simulated CPU/IO, host
	// time and peak live bytes per plan node. Observation-only — results
	// and simulated charges are byte-identical with or without it. See
	// profile.go for the attribution contract under parallelism.
	Profile bool
}

// Tunable is implemented by every storage scheme: it carries the executor
// options its Database.Run uses.
type Tunable interface {
	SetExecOptions(ExecOptions)
}

// execMode is embedded by the four schemes to satisfy Tunable.
type execMode struct {
	opt ExecOptions
}

// SetExecOptions implements Tunable.
func (m *execMode) SetExecOptions(o ExecOptions) { m.opt = o }

// JoinChoice records one lowering decision for tests and diagnostics.
type JoinChoice struct {
	Var   string
	Merge bool
}

// Trace records how a plan was lowered: which join algorithms ran, and how
// wide the per-property fan-out was.
type Trace struct {
	// Joins lists the executed joins in completion order.
	Joins []JoinChoice
	// PartitionScans counts per-property scans issued by unbound-property
	// accesses on partitioned schemes.
	PartitionScans int
	// UnionParts counts relations merged by access-level unions.
	UnionParts int
	// Parallel reports whether any operator actually fanned work over the
	// worker pool (per-property scans, union merges, group counting).
	Parallel bool
	// Streamed reports that the pull-based streaming executor ran the plan.
	Streamed bool
	// PeakBytes is the tracked peak of live intermediate-result bytes. The
	// materializing executor keeps every operator output live in its memo,
	// so its peak is the sum of all intermediate results; the streaming
	// executor counts in-flight batches plus buffered operator state
	// (hash-join builds, group tables, TopN heaps).
	PeakBytes int64
	// SourceBatches counts scan batches pulled from the physical sources
	// (streaming executor only) — early-termination tests assert a LIMIT-n
	// plan pulls O(n) rows' worth of batches, not the whole input.
	SourceBatches int
	// TopNs records each executed TopN: input rows, limit, and the
	// comparisons charged. The materializing full sort charges
	// n·ceil(log2 n); the streaming bounded heap charges n·ceil(log2 k).
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
	// Heap reports the streaming bounded-heap strategy (vs. a full sort).
	Heap bool
}

// Execute runs one benchmark query through the declarative plan layer.
func Execute(src PhysicalSource, q Query) (*rel.Rel, error) {
	return ExecuteOpts(src, q, ExecOptions{})
}

// ExecuteOpts is Execute with tuning.
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
// before every operator and between the per-property scans of a fan-out, so
// a cancelled or expired context aborts the plan at the next operator
// boundary and returns ctx.Err(). This is the entry point of the serving
// layer, which threads each client's request context through here.
func ExecutePlanCtx(ctx context.Context, src PhysicalSource, root Node, opt ExecOptions) (*rel.Rel, []string, *Trace, error) {
	ex := &executor{
		ctx:  ctx,
		src:  src,
		ops:  src.Ops(),
		opt:  opt,
		tr:   &Trace{},
		memo: make(map[Node]batch),
		req:  requiredVars(root),
		uses: useCounts(root),
		mem:  &memTracker{},
	}
	if opt.Profile {
		ex.prof = newProfiler(ex.ops, ex.mem)
	}
	if opt.Streaming {
		if sops, ok := ex.ops.(StreamOps); ok {
			out, cols, tr, err := ex.runStream(root, sops)
			if err == nil && ex.prof != nil {
				tr.Profile = ex.prof.finish()
			}
			return out, cols, tr, err
		}
	}
	b, err := ex.eval(root)
	if err != nil {
		return nil, nil, nil, err
	}
	ex.tr.PeakBytes = ex.mem.peakBytes()
	if ex.prof != nil {
		ex.tr.Profile = ex.prof.finish()
	}
	return b.rel, b.cols, ex.tr, nil
}

// batch is an intermediate result: a relation, its column names (variable
// names from the plan), and the column its rows are known to ascend on
// ("" when unordered) — the property that licenses merge joins.
type batch struct {
	rel    *rel.Rel
	cols   []string
	sorted string
}

func (b batch) col(name string) (int, error) {
	for i, c := range b.cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no column %q in %v", name, b.cols)
}

type executor struct {
	ctx  context.Context
	src  PhysicalSource
	ops  PhysicalOps
	opt  ExecOptions
	tr   *Trace
	memo map[Node]batch
	req  map[Node]map[string]bool
	uses map[Node]int
	mem  *memTracker
	// prof is the EXPLAIN ANALYZE collector, nil unless opt.Profile.
	prof *profiler
}

// unionAll merges fan-out parts, parallelizing the tuple movement when the
// worker-pool mode is on (the previously sequential tail of the parallel
// per-property scans). Output and charges are identical either way.
func (ex *executor) unionAll(w int, parts []*rel.Rel) *rel.Rel {
	if ex.opt.Workers > 1 && len(parts) > 1 {
		ex.tr.Parallel = true
		return ex.ops.UnionAllPar(w, parts, ex.opt.Workers)
	}
	return ex.ops.UnionAll(w, parts)
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

func (ex *executor) eval(n Node) (batch, error) {
	if err := ex.ctx.Err(); err != nil {
		return batch{}, err
	}
	if b, ok := ex.memo[n]; ok {
		return b, nil
	}
	if ex.prof != nil {
		prof := ex.prof.enter(n)
		c0 := ex.prof.charges()
		t0 := time.Now()
		defer func() {
			prof.add(ex.prof.charges().sub(c0), time.Since(t0))
			prof.observe(ex.mem)
			if b, ok := ex.memo[n]; ok {
				prof.Rows = b.rel.Len()
				prof.Batches = 1
			}
			ex.prof.exit()
		}()
	}
	var b batch
	var err error
	switch x := n.(type) {
	case *Access:
		b, err = ex.evalAccess(x)
	case *Join:
		b, err = ex.evalJoin(x)
	case *LeftJoin:
		b, err = ex.evalLeftJoin(x)
	case *FilterNe:
		b, err = ex.evalFilterNe(x)
	case *FilterEqCols:
		b, err = ex.evalFilterEqCols(x)
	case *FilterRange:
		b, err = ex.evalFilterRange(x)
	case *Distinct:
		b, err = ex.evalDistinct(x)
	case *Union:
		b, err = ex.evalUnion(x)
	case *Group:
		b, err = ex.evalGroup(x)
	case *Having:
		b, err = ex.evalHaving(x)
	case *Project:
		b, err = ex.evalProject(x)
	case *TopN:
		b, err = ex.evalTopN(x)
	case *Limit:
		b, err = ex.evalLimit(x)
	default:
		err = fmt.Errorf("unknown plan node %T", n)
	}
	if err != nil {
		return batch{}, err
	}
	// Every materializing intermediate stays live in the memo until the
	// plan finishes, so peak memory is the running sum of operator outputs.
	ex.mem.alloc(relBytes(b.rel))
	ex.memo[n] = b
	return b, nil
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
// a repeated variable as an eq pair), projection and union alignment, in
// both executors.
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

// run maps b's rows into out, emptied first and grown to the rows b holds,
// and returns it — or b itself, untouched, when the mapping is the identity.
func (g *gather) run(out, b *rel.Rel, k uint64) *rel.Rel {
	if g.pass {
		return b
	}
	val := func(row []uint64, s int) uint64 {
		if s < 0 {
			return k
		}
		return row[s]
	}
	reuse(out)
	n, w := b.Len(), len(g.src)
	d, o := slices.Grow(out.Data, n*w)[:n*w], 0
rows:
	for i := 0; i < n; i++ {
		row := b.Row(i)
		for _, e := range g.eq {
			if val(row, e[0]) != val(row, e[1]) {
				continue rows
			}
		}
		for j, s := range g.src {
			d[o+j] = val(row, s)
		}
		o += w
	}
	out.Data = d[:o]
	return out
}

// keptSlots prunes an access's variable slots to those the plan consumes.
// A slot survives when its variable is demanded downstream or repeats
// within the pattern (the repetition is an equality filter that must still
// apply). Pruning never empties the slot list: a benchmark access always
// feeds at least one demanded variable.
func (ex *executor) keptSlots(a *Access) []slot {
	slots := patternSlots(a.Pattern)
	req := ex.req[a]
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

func (ex *executor) evalAccess(a *Access) (batch, error) {
	tp := a.Pattern
	restricted := a.Restrict
	slots := ex.keptSlots(a)

	if tp.P.Bound() {
		// Single-property access: the per-property scan path on every
		// scheme (an indexed range on the triples table, or one vertical
		// table).
		rows, err := ex.src.ScanProp(tp.P.Const, tp.S.Const, tp.O.Const, needOf(slots))
		if err != nil {
			return batch{}, err
		}
		cols := slotCols(slots)
		out := compileAssembly(slots, 2).run(rel.New(len(cols)), rows, uint64(tp.P.Const))
		sorted := ""
		if ex.src.PropOrdered() {
			// SO-clustered vertical tables return the first unbound
			// position ascending: subjects in general, objects within one
			// bound subject.
			switch {
			case !tp.S.Bound() && tp.S.Var != "":
				sorted = tp.S.Var
			case !tp.O.Bound() && tp.O.Var != "":
				sorted = tp.O.Var
			}
		}
		return batch{rel: out, cols: cols, sorted: sorted}, nil
	}

	if ex.src.Partitioned() {
		// Unbound property over per-property tables: scan each table and
		// union — the plans with "more than two hundred unions and joins"
		// the paper attributes to the vertical scheme. The restricted
		// queries visit only the interesting tables.
		props := ex.src.Cat().AllProps
		if restricted {
			props = ex.src.Cat().Interesting
		}
		cols := slotCols(slots)
		asm := compileAssembly(slots, 2)
		tag := func(p rdf.ID, part *rel.Rel) *rel.Rel {
			return asm.run(rel.New(len(cols)), part, uint64(p))
		}
		tagged, err := ex.scanProps(props, tp.S.Const, tp.O.Const, needOf(slots), tag)
		if err != nil {
			return batch{}, err
		}
		ex.tr.UnionParts += len(tagged)
		out := ex.unionAll(len(cols), tagged)
		return batch{rel: out, cols: cols}, nil
	}

	// Unbound property on a triple-store: one scan of the triples table,
	// with the property restriction applied as the properties-table
	// semijoin of the paper's restricted queries (which reads the property
	// column, so the mask must include it).
	need := needOf(slots)
	if restricted {
		need.P = true
	}
	rows := ex.src.ScanTriples(tp.S.Const, tp.O.Const, need)
	if restricted {
		rows = ex.src.RestrictProps(rows, 1)
	}
	cols := slotCols(slots)
	out := compileAssembly(slots, 3).run(rel.New(len(cols)), rows, 0)
	return batch{rel: out, cols: cols}, nil
}

// scanProps runs the per-property scans of one partitioned access,
// sequentially or over the worker pool, applying tag (scan → tagged
// relation) in the worker so materialization parallelizes too. Results are
// indexed by property, so the merge order — and therefore the output — is
// deterministic either way.
func (ex *executor) scanProps(props []rdf.ID, s, o rdf.ID, need ScanCols, tag func(p rdf.ID, part *rel.Rel) *rel.Rel) ([]*rel.Rel, error) {
	parts := make([]*rel.Rel, len(props))
	errs := make([]error, len(props))
	one := func(i int) {
		// Wide fan-outs are the long-running part of a plan: checking the
		// context per scan lets cancellation land between property tables
		// rather than only between operators.
		if err := ex.ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		part, err := ex.src.ScanProp(props[i], s, o, need)
		if err != nil {
			errs[i] = err
			return
		}
		parts[i] = tag(props[i], part)
	}
	workers := ex.opt.Workers
	if workers > len(props) {
		workers = len(props)
	}
	if workers > 1 {
		ex.tr.Parallel = true
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					one(i)
				}
			}()
		}
		for i := range props {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i := range props {
			one(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ex.tr.PartitionScans += len(props)
	return parts, nil
}

// partitionedJoinSide recognizes a join input that is an unbound-property
// access on a partitioned scheme (optionally behind a FilterNe), the shape
// eligible for join pushdown into the per-property fan-out.
func (ex *executor) partitionedJoinSide(n Node) (*Access, *FilterNe) {
	var f *FilterNe
	if x, ok := n.(*FilterNe); ok {
		if ex.uses[x] > 1 {
			return nil, nil
		}
		f = x
		n = x.In
	}
	a, ok := n.(*Access)
	if !ok || a.Pattern.P.Bound() || !ex.src.Partitioned() {
		return nil, nil
	}
	// A shared subexpression must be evaluated exactly once through the
	// memo, never consumed by pushdown (which bypasses memoization).
	if ex.uses[a] > 1 {
		return nil, nil
	}
	if _, seen := ex.memo[a]; seen {
		return nil, nil
	}
	return a, f
}

// evalPartitionedJoin distributes a join over the per-property union:
// instead of materializing the full union and joining once, each property
// table is scanned, tagged, filtered and joined in its own step — the
// vertically-partitioned plans of the paper, with "more than two hundred
// unions and joins", and the unit of work the parallel mode fans out.
// Join distributes over union, so the result is the same bag.
func (ex *executor) evalPartitionedJoin(other batch, a *Access, f *FilterNe) (batch, error) {
	tp := a.Pattern
	restricted := a.Restrict
	slots := ex.keptSlots(a)
	accCols := slotCols(slots)
	var shared []string
	accSet := map[string]bool{}
	for _, c := range accCols {
		accSet[c] = true
	}
	for _, c := range other.cols {
		if accSet[c] {
			shared = append(shared, c)
		}
	}
	if len(shared) != 1 {
		return batch{}, fmt.Errorf("join of %v and %v shares %d variables, want 1", other.cols, accCols, len(shared))
	}
	v := shared[0]
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
			return batch{}, fmt.Errorf("filter column %q not in %v", f.Col, accCols)
		}
	}
	props := ex.src.Cat().AllProps
	if restricted {
		props = ex.src.Cat().Interesting
	}
	prep := ex.ops.PrepareHashJoin(other.rel, oc)
	// Atomics: the parallel fan-out runs step concurrently. Touched only
	// when profiling, so the unprofiled path stays zero-cost.
	var accRows, filtRows atomic.Int64
	asm := compileAssembly(slots, 2)
	step := func(p rdf.ID, part *rel.Rel) *rel.Rel {
		tagged := asm.run(rel.New(len(accCols)), part, uint64(p))
		if ex.prof != nil {
			accRows.Add(int64(tagged.Len()))
		}
		if fc >= 0 {
			tagged = ex.ops.FilterNe(tagged, fc, uint64(f.Value))
			if ex.prof != nil {
				filtRows.Add(int64(tagged.Len()))
			}
		}
		return prep.Probe(tagged, ac)
	}
	parts, err := ex.scanProps(props, tp.S.Const, tp.O.Const, needOf(slots), step)
	if err != nil {
		return batch{}, err
	}
	if ex.prof != nil {
		// The fused access (and filter) never evaluate standalone, so give
		// them zero-charge frames under the join recording the rows that
		// flowed through each fused step; their work is charged to the join.
		ex.profileFused(a, f, len(parts), int(accRows.Load()), int(filtRows.Load()))
	}
	ex.tr.UnionParts += len(parts)
	ex.tr.Joins = append(ex.tr.Joins, JoinChoice{Var: v, Merge: false})
	joined := ex.unionAll(other.rel.W+len(accCols), parts)
	// Drop the access side's copy of the join column.
	keep := make([]int, 0, other.rel.W+len(accCols)-1)
	cols := make([]string, 0, other.rel.W+len(accCols)-1)
	for i, c := range other.cols {
		keep = append(keep, i)
		cols = append(cols, c)
	}
	for i, c := range accCols {
		if i == ac {
			continue
		}
		keep = append(keep, other.rel.W+i)
		cols = append(cols, c)
	}
	return batch{rel: joined.Project(keep...), cols: cols}, nil
}

// profileFused records zero-charge child frames for a partitioned join's
// fused access (and optional filter) steps — the caller holds the join's
// profile frame, so the nesting lands under it.
func (ex *executor) profileFused(a *Access, f *FilterNe, parts, accRows, filtRows int) {
	if f != nil {
		fp := ex.prof.enter(f)
		fp.Note = "fused"
		fp.Rows, fp.Batches = filtRows, parts
		defer ex.prof.exit()
	}
	ap := ex.prof.enter(a)
	ap.Note = "fused"
	ap.Rows, ap.Batches = accRows, parts
	ex.prof.exit()
}

// profileFusedStream is profileFused's streaming counterpart: the frames
// open now, under the join being built, but the per-part arms only run —
// possibly on prefetch workers — once the pipeline is pulled, so row
// totals land through the atomics at finish().
func (ex *executor) profileFusedStream(a *Access, f *FilterNe, accRows, accBatches, filtRows, filtBatches *atomic.Int64) {
	fill := func(p *OpProfile, rows, batches *atomic.Int64) {
		ex.prof.onFinish = append(ex.prof.onFinish, func() {
			p.Rows = int(rows.Load())
			p.Batches = int(batches.Load())
		})
	}
	if f != nil {
		fp := ex.prof.enter(f)
		fp.Note = "fused"
		fill(fp, filtRows, filtBatches)
		defer ex.prof.exit()
	}
	ap := ex.prof.enter(a)
	ap.Note = "fused"
	fill(ap, accRows, accBatches)
	ex.prof.exit()
}

func (ex *executor) evalJoin(j *Join) (batch, error) {
	// Join pushdown: a partitioned unbound-property access joins per
	// property table, inside the fan-out.
	if a, f := ex.partitionedJoinSide(j.R); a != nil {
		other, err := ex.eval(j.L)
		if err != nil {
			return batch{}, err
		}
		if ex.prof != nil {
			ex.prof.note(j, "partitioned hash")
		}
		return ex.evalPartitionedJoin(other, a, f)
	}
	if a, f := ex.partitionedJoinSide(j.L); a != nil {
		other, err := ex.eval(j.R)
		if err != nil {
			return batch{}, err
		}
		if ex.prof != nil {
			ex.prof.note(j, "partitioned hash")
		}
		return ex.evalPartitionedJoin(other, a, f)
	}
	l, err := ex.eval(j.L)
	if err != nil {
		return batch{}, err
	}
	r, err := ex.eval(j.R)
	if err != nil {
		return batch{}, err
	}
	var shared []string
	rSet := map[string]bool{}
	for _, c := range r.cols {
		rSet[c] = true
	}
	for _, c := range l.cols {
		if rSet[c] {
			shared = append(shared, c)
		}
	}
	if len(shared) != 1 {
		return batch{}, fmt.Errorf("join of %v and %v shares %d variables, want 1", l.cols, r.cols, len(shared))
	}
	v := shared[0]
	lc, _ := l.col(v)
	rc, _ := r.col(v)
	merge := l.sorted == v && r.sorted == v
	var joined *rel.Rel
	if merge {
		joined = ex.ops.MergeJoin(l.rel, r.rel, lc, rc)
	} else {
		joined = ex.ops.HashJoin(l.rel, r.rel, lc, rc)
	}
	ex.tr.Joins = append(ex.tr.Joins, JoinChoice{Var: v, Merge: merge})
	if ex.prof != nil {
		if merge {
			ex.prof.note(j, "merge")
		} else {
			ex.prof.note(j, "hash")
		}
	}
	// Drop the right side's copy of the join column.
	keep := make([]int, 0, l.rel.W+r.rel.W-1)
	cols := make([]string, 0, l.rel.W+r.rel.W-1)
	for i, c := range l.cols {
		keep = append(keep, i)
		cols = append(cols, c)
	}
	for i, c := range r.cols {
		if i == rc {
			continue
		}
		keep = append(keep, l.rel.W+i)
		cols = append(cols, c)
	}
	sorted := ""
	if merge {
		sorted = v
	}
	return batch{rel: joined.Project(keep...), cols: cols, sorted: sorted}, nil
}

// evalLeftJoin is the outer counterpart of evalJoin: a hash left join on
// the single shared variable. There is no partitioned pushdown — the
// optional side must see the complete left input to know which rows lack a
// match, so the OPTIONAL boundary is also a fan-out boundary.
func (ex *executor) evalLeftJoin(j *LeftJoin) (batch, error) {
	l, err := ex.eval(j.L)
	if err != nil {
		return batch{}, err
	}
	r, err := ex.eval(j.R)
	if err != nil {
		return batch{}, err
	}
	var shared []string
	rSet := map[string]bool{}
	for _, c := range r.cols {
		rSet[c] = true
	}
	for _, c := range l.cols {
		if rSet[c] {
			shared = append(shared, c)
		}
	}
	if len(shared) != 1 {
		return batch{}, fmt.Errorf("left join of %v and %v shares %d variables, want 1", l.cols, r.cols, len(shared))
	}
	v := shared[0]
	lc, _ := l.col(v)
	rc, _ := r.col(v)
	joined := ex.ops.LeftJoin(l.rel, r.rel, lc, rc, uint64(rdf.NoID))
	ex.tr.Joins = append(ex.tr.Joins, JoinChoice{Var: v, Merge: false})
	if ex.prof != nil {
		ex.prof.note(j, "hash")
	}
	// Drop the right side's copy of the join column (NoID on unmatched
	// rows, never the left value — the left copy is the surviving one).
	keep := make([]int, 0, l.rel.W+r.rel.W-1)
	cols := make([]string, 0, l.rel.W+r.rel.W-1)
	for i, c := range l.cols {
		keep = append(keep, i)
		cols = append(cols, c)
	}
	for i, c := range r.cols {
		if i == rc {
			continue
		}
		keep = append(keep, l.rel.W+i)
		cols = append(cols, c)
	}
	// The operator preserves left input order, so the left ordering
	// property survives (a matched left row may repeat, which keeps the
	// column non-strictly ascending — what merge joins require).
	return batch{rel: joined.Project(keep...), cols: cols, sorted: l.sorted}, nil
}

func (ex *executor) evalFilterNe(f *FilterNe) (batch, error) {
	in, err := ex.eval(f.In)
	if err != nil {
		return batch{}, err
	}
	c, err := in.col(f.Col)
	if err != nil {
		return batch{}, err
	}
	out := ex.ops.FilterNe(in.rel, c, uint64(f.Value))
	return batch{rel: out, cols: in.cols, sorted: in.sorted}, nil
}

func (ex *executor) evalFilterEqCols(f *FilterEqCols) (batch, error) {
	in, err := ex.eval(f.In)
	if err != nil {
		return batch{}, err
	}
	a, err := in.col(f.A)
	if err != nil {
		return batch{}, err
	}
	b, err := in.col(f.B)
	if err != nil {
		return batch{}, err
	}
	out := ex.ops.FilterEqCol(in.rel, a, b)
	return batch{rel: out, cols: in.cols, sorted: in.sorted}, nil
}

func (ex *executor) evalFilterRange(f *FilterRange) (batch, error) {
	in, err := ex.eval(f.In)
	if err != nil {
		return batch{}, err
	}
	c, err := in.col(f.Col)
	if err != nil {
		return batch{}, err
	}
	out := ex.ops.FilterPred(in.rel, c, RangePred(f))
	return batch{rel: out, cols: in.cols, sorted: in.sorted}, nil
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

func (ex *executor) evalTopN(t *TopN) (batch, error) {
	in, err := ex.eval(t.In)
	if err != nil {
		return batch{}, err
	}
	less, err := SortLess(t.Keys, in.cols, t.Ord)
	if err != nil {
		return batch{}, err
	}
	n := in.rel.Len()
	ex.tr.TopNs = append(ex.tr.TopNs, TopNStat{
		Input: n, Limit: t.Limit, Compares: sortCompares(n),
	})
	if ex.prof != nil {
		ex.prof.note(t, "sort")
	}
	out := ex.ops.TopN(in.rel, t.Limit, less)
	// Value order is not identifier order, so the merge-join licence
	// ("sorted") does not survive a TopN.
	return batch{rel: out, cols: in.cols, sorted: ""}, nil
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

// evalLimit truncates the input to its first N rows in pipeline order. The
// prefix of an ordered input stays ordered, and truncation is a plan-level
// copy — neither engine charges for it — so the streaming executor's Limit
// matches this result exactly while additionally closing its input early.
func (ex *executor) evalLimit(l *Limit) (batch, error) {
	in, err := ex.eval(l.In)
	if err != nil {
		return batch{}, err
	}
	n := l.N
	if n < 0 {
		n = 0
	}
	if n >= in.rel.Len() {
		return in, nil
	}
	out := rel.New(in.rel.W)
	out.Data = append(out.Data, in.rel.Data[:n*in.rel.W]...)
	return batch{rel: out, cols: in.cols, sorted: in.sorted}, nil
}

func (ex *executor) evalDistinct(d *Distinct) (batch, error) {
	in, err := ex.eval(d.In)
	if err != nil {
		return batch{}, err
	}
	// Both engines' Distinct keeps the first occurrence in input order, so
	// ordering survives.
	return batch{rel: ex.ops.Distinct(in.rel), cols: in.cols, sorted: in.sorted}, nil
}

func (ex *executor) evalUnion(u *Union) (batch, error) {
	l, err := ex.eval(u.L)
	if err != nil {
		return batch{}, err
	}
	r, err := ex.eval(u.R)
	if err != nil {
		return batch{}, err
	}
	if len(l.cols) != len(r.cols) {
		return batch{}, fmt.Errorf("union of %v and %v", l.cols, r.cols)
	}
	// Align the right side's column order with the left's.
	perm := make([]int, len(l.cols))
	for i, c := range l.cols {
		j, err := r.col(c)
		if err != nil {
			return batch{}, fmt.Errorf("union of %v and %v", l.cols, r.cols)
		}
		perm[i] = j
	}
	rr := r.rel
	for i, j := range perm {
		if i != j {
			rr = r.rel.Project(perm...)
			break
		}
	}
	return batch{rel: ex.ops.Union(l.rel, rr), cols: l.cols}, nil
}

func (ex *executor) evalGroup(g *Group) (batch, error) {
	in, err := ex.eval(g.In)
	if err != nil {
		return batch{}, err
	}
	keys := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		if keys[i], err = in.col(k); err != nil {
			return batch{}, err
		}
	}
	// The chunked count only parallelizes with more than one row (the
	// engines clamp workers to the row count); below that it is the
	// sequential operator and the trace must say so.
	var out *rel.Rel
	if ex.opt.Workers > 1 && in.rel.Len() > 1 {
		ex.tr.Parallel = true
		out = ex.ops.GroupCountPar(in.rel, ex.opt.Workers, keys...)
	} else {
		out = ex.ops.GroupCount(in.rel, keys...)
	}
	cols := append(append([]string(nil), g.Keys...), CountCol)
	// GroupCount sorts its output lexicographically on all columns.
	return batch{rel: out, cols: cols, sorted: g.Keys[0]}, nil
}

func (ex *executor) evalHaving(h *Having) (batch, error) {
	in, err := ex.eval(h.In)
	if err != nil {
		return batch{}, err
	}
	c, err := in.col(h.Col)
	if err != nil {
		return batch{}, err
	}
	out := ex.ops.HavingGT(in.rel, c, h.Min)
	return batch{rel: out, cols: in.cols, sorted: in.sorted}, nil
}

func (ex *executor) evalProject(p *Project) (batch, error) {
	in, err := ex.eval(p.In)
	if err != nil {
		return batch{}, err
	}
	idx := make([]int, len(p.Cols))
	for i, c := range p.Cols {
		if idx[i], err = in.col(c); err != nil {
			return batch{}, err
		}
	}
	names := p.Cols
	if p.As != nil {
		if len(p.As) != len(p.Cols) {
			return batch{}, fmt.Errorf("project renames %d of %d columns", len(p.As), len(p.Cols))
		}
		names = p.As
	}
	sorted := ""
	for i, c := range p.Cols {
		if c == in.sorted {
			sorted = names[i]
		}
	}
	return batch{rel: in.rel.Project(idx...), cols: append([]string(nil), names...), sorted: sorted}, nil
}
