package bgp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/trace"
)

// Compiled is one compiled query: the analysed plan the core executor
// runs (Root is its DAG) plus its output schema and ordering diagnostics.
// Every node's estimated output rows — the figures the join order was
// chosen on, which EXPLAIN ANALYZE sets beside the measured rows — are in
// the plan's node table (Plan.Nodes).
type Compiled struct {
	*core.Plan
	// Cols names the output columns, in order.
	Cols []string
	// Order lists the join steps in the sequence the cost model chose
	// them, e.g. "?s <origin> <DLC> JOIN ?s <records> ?x ON s".
	Order []string
	// Cost is the plan's score under the estimator's model (the sum of
	// estimated Access, Join and LeftJoin cardinalities).
	Cost float64
	// Counts marks output columns holding aggregate counts — plain
	// numbers, not dictionary identifiers.
	Counts map[string]bool

	dict       rdf.Dict // what the plan's constants resolve against
	labelsOnce sync.Once
	labels     []string
}

// Labels returns every plan node's operator label (core.NodeLabel), by node
// number, its constants rendered through the dictionary the plan was
// compiled against. They are rendered once, at the first call — by an
// observer, never on the compile path — and shared by every caller after.
func (c *Compiled) Labels() []string {
	c.labelsOnce.Do(func() {
		term := func(id rdf.ID) string { return c.dict.Term(id).String() }
		nodes := c.Nodes()
		c.labels = make([]string, len(nodes))
		for i, in := range nodes {
			c.labels[i] = core.NodeLabel(in.Node, term)
		}
	})
	return c.labels
}

// UnknownTermError reports a constant term that is not in the dictionary —
// the query can match nothing, because every loaded triple is dictionary-
// encoded.
type UnknownTermError struct{ Term Term }

func (e *UnknownTermError) Error() string {
	return fmt.Sprintf("bgp: term %s not in dictionary (no triple can match)", e.Term)
}

// CompileError marks a semantic compilation failure: the query lexes and
// parses, but cannot be compiled — an unbound selected variable, invalid
// aggregation, a disconnected pattern group, mismatched union columns.
// Like ParseError and UnknownTermError it is the client's mistake, not the
// system's; the serving layer relies on the distinction for its HTTP
// statuses. The message is unchanged by the wrapper.
type CompileError struct{ Err error }

func (e *CompileError) Error() string { return e.Err.Error() }
func (e *CompileError) Unwrap() error { return e.Err }

// CompileText parses and compiles a query in one step.
func CompileText(text string, dict rdf.Dict, est *Estimator) (*Compiled, error) {
	return CompileTextCtx(context.Background(), text, dict, est)
}

// CompileTextCtx is CompileText under a request context: when ctx carries
// a request trace (internal/trace), the parse and plan phases each record
// a span — "bgp.parse" with the text length, "bgp.plan" with the chosen
// join order's cost and step count — so a cache-miss compilation is
// visible inside the request's trace. Untraced contexts pay one nil
// check per phase.
func CompileTextCtx(ctx context.Context, text string, dict rdf.Dict, est *Estimator) (*Compiled, error) {
	_, psp := trace.StartSpan(ctx, "bgp.parse")
	psp.SetAttr(trace.Int("bytes", int64(len(text))))
	q, err := Parse(text)
	if err != nil {
		psp.SetError(err)
		psp.End()
		return nil, err
	}
	psp.End()
	_, csp := trace.StartSpan(ctx, "bgp.plan")
	c, err := Compile(q, dict, est)
	if err != nil {
		csp.SetError(err)
		csp.End()
		return nil, err
	}
	csp.SetAttr(trace.Int("joinSteps", int64(len(c.Order))), trace.String("estCost", fmt.Sprintf("%.0f", c.Cost)))
	csp.End()
	return c, nil
}

// Compile lowers a query to a core plan. Constants resolve against dict;
// est drives the join order (nil falls back to bind-count heuristics).
// The WHERE block must be connected — every pattern must share a variable,
// directly or transitively, with the rest — and identical patterns are
// compiled once (common subexpressions execute once, also across union
// branches).
func Compile(q *Query, dict rdf.Dict, est *Estimator) (*Compiled, error) {
	c := &compiler{dict: dict, est: newCoster(est), access: map[accessKey]*core.Access{}}
	root, cols, err := c.compileQuery(q)
	if err != nil {
		// Keep the already-typed dictionary error; everything else from
		// compilation is a semantic client error.
		var ute *UnknownTermError
		if errors.As(err, &ute) {
			return nil, err
		}
		return nil, &CompileError{Err: err}
	}
	// The executor's analysis rejecting the compiler's own output is a bug
	// in the system, not the client's mistake: the error stays unwrapped.
	plan, cost, err := c.est.price(root)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		Plan: plan, Cols: cols, Order: c.order,
		Cost: cost, Counts: countColsOf(q), dict: dict,
	}, nil
}

// countColsOf returns the output columns of q that hold aggregate counts
// (plain numbers rather than dictionary identifiers), following count
// columns surfaced through union sub-select branches.
func countColsOf(q *Query) map[string]bool {
	inner := map[string]bool{}
	for _, e := range q.Where {
		u, ok := e.(*Union)
		if !ok {
			continue
		}
		// A column counts as an aggregate if any branch computes it as one
		// (mixed unions are ill-typed for decoding either way; numbers are
		// the safe rendering).
		for _, br := range u.Branches {
			for col := range countColsOf(br) {
				inner[col] = true
			}
		}
	}
	out := map[string]bool{}
	if q.Select == nil {
		for col := range inner {
			out[col] = true
		}
		if len(q.GroupBy) > 0 {
			out[core.CountCol] = true
		}
		return out
	}
	for _, s := range q.Select {
		if s.Count || inner[s.Var] {
			out[s.Name()] = true
		}
	}
	return out
}

type accessKey struct {
	pat      core.TriplePattern
	restrict bool
}

type compiler struct {
	dict rdf.Dict
	// est is the compilation's one estimate: the greedy ordering reads
	// every subtree's from it, and Compiled carries it out.
	est    *coster
	access map[accessKey]*core.Access // hash-consed accesses (CSE)
	order  []string
	fresh  int
}

// tree is one GOO subtree: a plan node, its column names and the label
// Compiled.Order names it by.
type tree struct {
	node  core.Node
	cols  []string
	label string
}

func (t tree) has(v string) bool {
	for _, c := range t.cols {
		if c == v {
			return true
		}
	}
	return false
}

func (c *compiler) resolveTerm(t Term) (core.TermRef, error) {
	if t.IsVar() {
		return core.V(t.Var), nil
	}
	id, ok := c.dict.Lookup(rdf.Term{Value: t.Value, Kind: t.Kind})
	if !ok {
		return core.TermRef{}, &UnknownTermError{Term: t}
	}
	return core.C(id), nil
}

// leafFor builds (or reuses) the Access leaf of one pattern.
func (c *compiler) leafFor(p Pattern) (tree, error) {
	var refs [3]core.TermRef
	for i, t := range []Term{p.S, p.P, p.O} {
		ref, err := c.resolveTerm(t)
		if err != nil {
			return tree{}, err
		}
		refs[i] = ref
	}
	tp := core.Pat(refs[0], refs[1], refs[2])
	var cols []string
	seen := map[string]bool{}
	for _, ref := range refs {
		if !ref.Bound() && ref.Var != "" && !seen[ref.Var] {
			seen[ref.Var] = true
			cols = append(cols, ref.Var)
		}
	}
	if len(cols) == 0 {
		return tree{}, fmt.Errorf("bgp: pattern %s %s %s binds no variable", p.S, p.P, p.O)
	}
	key := accessKey{pat: tp, restrict: p.Restrict}
	acc, ok := c.access[key]
	if !ok {
		acc = &core.Access{Pattern: tp, Restrict: p.Restrict}
		c.access[key] = acc
	}
	return tree{node: acc, cols: cols, label: fmt.Sprintf("%s %s %s", p.S, p.P, p.O)}, nil
}

// compileQuery compiles one (sub-)query: WHERE block, aggregation, HAVING,
// projection and DISTINCT.
func (c *compiler) compileQuery(q *Query) (core.Node, []string, error) {
	t, err := c.compileBlock(q)
	if err != nil {
		return nil, nil, err
	}
	node, cols := t.node, t.cols

	hasCount := false
	for _, s := range q.Select {
		if s.Count {
			hasCount = true
		}
	}
	agg := hasCount || len(q.GroupBy) > 0
	if agg {
		if len(q.GroupBy) == 0 {
			return nil, nil, fmt.Errorf("bgp: COUNT requires GROUP BY")
		}
		if t.has(core.CountCol) {
			return nil, nil, fmt.Errorf("bgp: variable ?%s collides with the aggregate column in an aggregated query", core.CountCol)
		}
		if len(q.GroupBy) > 2 {
			return nil, nil, fmt.Errorf("bgp: GROUP BY supports at most 2 keys, got %d", len(q.GroupBy))
		}
		for _, k := range q.GroupBy {
			if !t.has(k) {
				return nil, nil, fmt.Errorf("bgp: GROUP BY variable ?%s not bound in WHERE", k)
			}
		}
		node = &core.Group{In: node, Keys: q.GroupBy}
		cols = append(append([]string(nil), q.GroupBy...), core.CountCol)
	}
	if q.Having != nil {
		if !agg {
			return nil, nil, fmt.Errorf("bgp: HAVING requires GROUP BY")
		}
		node = &core.Having{In: node, Col: core.CountCol, Min: *q.Having}
	}

	// Projection: always explicit, so helper columns from cyclic joins are
	// dropped and the output order is the declared one.
	inCols := map[string]bool{}
	for _, col := range cols {
		inCols[col] = true
	}
	var src, names []string
	if q.Select == nil {
		if agg {
			src = cols
		} else {
			src = q.Vars()
		}
		names = src
	} else {
		for _, s := range q.Select {
			from := s.Var
			if s.Count {
				from = core.CountCol
			}
			src = append(src, from)
			names = append(names, s.Name())
		}
	}
	seen := map[string]bool{}
	for i, col := range src {
		if !inCols[col] {
			return nil, nil, fmt.Errorf("bgp: selected variable ?%s not bound in WHERE", col)
		}
		if seen[names[i]] {
			return nil, nil, fmt.Errorf("bgp: duplicate output column %q", names[i])
		}
		seen[names[i]] = true
	}
	proj := &core.Project{In: node, Cols: src}
	for i := range src {
		if src[i] != names[i] {
			proj.As = names
			break
		}
	}
	node = proj
	if q.Distinct {
		node = &core.Distinct{In: node}
	}
	if len(q.OrderBy) > 0 {
		counts := countColsOf(q)
		keys := make([]core.SortKey, len(q.OrderBy))
		outSet := map[string]bool{}
		for _, n := range names {
			outSet[n] = true
		}
		for i, k := range q.OrderBy {
			if !outSet[k.Var] {
				return nil, nil, fmt.Errorf("bgp: ORDER BY variable ?%s is not an output column", k.Var)
			}
			keys[i] = core.SortKey{Col: k.Var, Desc: k.Desc, Count: counts[k.Var]}
		}
		limit := -1
		if q.Limit != nil {
			limit = int(*q.Limit)
		}
		node = &core.TopN{In: node, Keys: keys, Limit: limit, Ord: core.DictValues{Dict: c.dict}}
	}
	return node, names, nil
}

// compileBlock builds the leaves of a WHERE block (patterns and unions,
// with filters folded in) and joins them greedily: at every step the two
// connected subtrees with the smallest estimated join result merge —
// smallest-intermediate-first, bushy whenever independent subtrees are the
// cheaper pairing. OPTIONAL blocks stay out of the greedy ordering
// entirely: each compiles to its own subtree and left-joins against the
// finished required tree in textual order — the outer join boundary is
// never reordered across.
func (c *compiler) compileBlock(q *Query) (tree, error) {
	trees, filters, optionals, err := c.blockLeaves(q.Where)
	if err != nil {
		return tree{}, err
	}
	if len(trees) == 0 {
		return tree{}, fmt.Errorf("bgp: WHERE block has no patterns")
	}
	if err := c.foldFilters(trees, filters); err != nil {
		return tree{}, err
	}
	t, err := c.greedyJoin(trees)
	if err != nil {
		return tree{}, err
	}
	for _, opt := range optionals {
		t, err = c.leftJoinOptional(t, opt)
		if err != nil {
			return tree{}, err
		}
	}
	return t, nil
}

// blockLeaves builds the leaf subtrees of a block's patterns and unions and
// collects its filters and OPTIONAL blocks.
func (c *compiler) blockLeaves(elems []Element) ([]tree, []Element, []*Optional, error) {
	var trees []tree
	var filters []Element
	var optionals []*Optional
	for _, e := range elems {
		switch x := e.(type) {
		case Pattern:
			leaf, err := c.leafFor(x)
			if err != nil {
				return nil, nil, nil, err
			}
			// Identical patterns add nothing to a conjunction (their
			// relation is a set): keep one leaf per access node.
			dup := false
			for _, t := range trees {
				if t.node == leaf.node {
					dup = true
					break
				}
			}
			if !dup {
				trees = append(trees, leaf)
			}
		case *Union:
			leaf, err := c.unionLeaf(x)
			if err != nil {
				return nil, nil, nil, err
			}
			trees = append(trees, leaf)
		case Filter, RangeFilter:
			filters = append(filters, x)
		case *Optional:
			optionals = append(optionals, x)
		}
	}
	return trees, filters, optionals, nil
}

// foldFilters places each filter (inequality or numeric range) onto the
// first leaf binding its variable, so the predicate applies before any
// join — the placement the hand-tuned plans use. Inequality against a
// constant missing from the dictionary compares as NoID, which no row
// carries: the filter is trivially true and kept cheap.
func (c *compiler) foldFilters(trees []tree, filters []Element) error {
	for _, e := range filters {
		var v string
		switch f := e.(type) {
		case Filter:
			v = f.Var
		case RangeFilter:
			v = f.Var
		}
		placed := false
		for i := range trees {
			if !trees[i].has(v) {
				continue
			}
			switch f := e.(type) {
			case Filter:
				id := rdf.NoID
				if ref, err := c.resolveTerm(f.Not); err == nil {
					id = ref.Const
				}
				trees[i].node = &core.FilterNe{In: trees[i].node, Col: v, Value: id}
			case RangeFilter:
				trees[i].node = rangeNode(trees[i].node, f, c.dict)
			}
			placed = true
			break
		}
		if !placed {
			return fmt.Errorf("bgp: FILTER variable ?%s not bound in WHERE", v)
		}
	}
	return nil
}

// rangeNode lowers one textual range filter to a FilterRange plan node.
func rangeNode(in core.Node, f RangeFilter, dict rdf.Dict) core.Node {
	n := &core.FilterRange{
		In: in, Col: f.Var,
		Lo: math.Inf(-1), Hi: math.Inf(1),
		Num: core.DictValues{Dict: dict},
	}
	switch f.Op {
	case "<":
		n.Hi = f.Val
	case "<=":
		n.Hi, n.IncHi = f.Val, true
	case ">":
		n.Lo = f.Val
	case ">=":
		n.Lo, n.IncLo = f.Val, true
	}
	return n
}

// greedyJoin merges subtrees smallest-intermediate-first until one remains.
func (c *compiler) greedyJoin(trees []tree) (tree, error) {
	for len(trees) > 1 {
		bi, bj := -1, -1
		var bestCard float64
		for i := 0; i < len(trees); i++ {
			for j := i + 1; j < len(trees); j++ {
				shared := sharedVars(trees[i], trees[j])
				if len(shared) == 0 {
					continue
				}
				card := joinCard(c.est.estimate(trees[i].node), c.est.estimate(trees[j].node), shared)
				if bi < 0 || card < bestCard {
					bi, bj, bestCard = i, j, card
				}
			}
		}
		if bi < 0 {
			return tree{}, fmt.Errorf("bgp: disconnected pattern group (%s shares no variable with the rest)", trees[len(trees)-1].label)
		}
		merged := c.join(trees[bi], trees[bj])
		trees[bi] = merged
		trees = append(trees[:bj], trees[bj+1:]...)
	}
	return trees[0], nil
}

// leftJoinOptional compiles one OPTIONAL block (its own greedy ordering
// inside) and left-joins it against the required tree. The block must be
// internally connected and share exactly one variable with the tree so the
// outer join's match condition is the single natural-join variable.
func (c *compiler) leftJoinOptional(t tree, opt *Optional) (tree, error) {
	leaves, filters, _, err := c.blockLeaves(opt.Where)
	if err != nil {
		return tree{}, err
	}
	if len(leaves) == 0 {
		return tree{}, fmt.Errorf("bgp: OPTIONAL block has no patterns")
	}
	if err := c.foldFilters(leaves, filters); err != nil {
		return tree{}, err
	}
	sub, err := c.greedyJoin(leaves)
	if err != nil {
		return tree{}, err
	}
	shared := sharedVars(t, sub)
	if len(shared) != 1 {
		return tree{}, fmt.Errorf("bgp: OPTIONAL block must share exactly one variable with the preceding elements, shares %d (%v)", len(shared), shared)
	}
	v := shared[0]
	node := &core.LeftJoin{L: t.node, R: sub.node}
	cols := append([]string(nil), t.cols...)
	for _, col := range sub.cols {
		if col != v {
			cols = append(cols, col)
		}
	}
	c.order = append(c.order, fmt.Sprintf("%s LEFT JOIN %s ON %s", t.label, sub.label, v))
	return tree{node: node, cols: cols, label: "(" + t.label + " LEFT JOIN " + sub.label + ")"}, nil
}

func sharedVars(a, b tree) []string {
	var out []string
	for _, v := range a.cols {
		if b.has(v) {
			out = append(out, v)
		}
	}
	return out
}

// join merges two subtrees. The natural join runs on the first shared
// variable; any further shared variables are renamed on the right side and
// checked with residual column-equality filters (the cyclic-BGP case),
// then projected away.
func (c *compiler) join(a, b tree) tree {
	shared := sharedVars(a, b)
	key := shared[0]
	right := b.node
	rcols := b.cols
	renames := map[string]string{}
	if len(shared) > 1 {
		as := make([]string, len(b.cols))
		for i, col := range b.cols {
			as[i] = col
			if col == key {
				continue
			}
			for _, v := range shared[1:] {
				if col == v {
					c.fresh++
					as[i] = fmt.Sprintf("%s~%d", col, c.fresh)
					renames[col] = as[i]
				}
			}
		}
		right = &core.Project{In: right, Cols: b.cols, As: as}
		rcols = as
	}
	var node core.Node = &core.Join{L: a.node, R: right, ProbeMax: c.probeMax(key, right, a.node)}
	for _, v := range shared[1:] {
		node = &core.FilterEqCols{In: node, A: v, B: renames[v]}
	}
	// Columns after the join: a's, then b's minus the join key (the
	// executor drops the right copy of the key).
	cols := append([]string(nil), a.cols...)
	for _, col := range rcols {
		if col != key {
			cols = append(cols, col)
		}
	}
	if len(shared) > 1 {
		// Drop the helper copies of the extra shared variables.
		helper := make(map[string]bool, len(renames))
		for _, h := range renames {
			helper[h] = true
		}
		kept := make([]string, 0, len(cols)-len(renames))
		for _, col := range cols {
			if !helper[col] {
				kept = append(kept, col)
			}
		}
		node = &core.Project{In: node, Cols: kept}
		cols = kept
	}
	c.order = append(c.order, fmt.Sprintf("%s JOIN %s ON %s", a.label, b.label, key))
	return tree{node: node, cols: cols, label: "(" + a.label + " JOIN " + b.label + ")"}
}

// probeBreakEven is how many rows of a property a full scan reads in the
// time one subject-bound seek into it takes, on the clock where a seek is
// dearest (DESIGN.md, "Join strategies", derives it from ledger rows): the
// simulated cold disk, where a probe is a seek and a scan is a transfer.
const probeBreakEven = 1024

// probeMax is the Join.ProbeMax the compiler licenses for a join on key:
// the most rows the other input may hold for seeking a bare property-bound
// access once per key to beat scanning it — the access's exact cardinality
// over the break-even constant. Candidates are tried in the executor's
// order of preference (right input, then left); without statistics nothing
// is licensed.
func (c *compiler) probeMax(key string, sides ...core.Node) int {
	if c.est.e == nil {
		return 0
	}
	for _, n := range sides {
		a, ok := n.(*core.Access)
		if ok && a.Pattern.P.Bound() && !a.Pattern.S.Bound() && a.Pattern.S.Var == key {
			return int(c.est.estimate(a).card) / probeBreakEven
		}
	}
	return 0
}

// unionLeaf compiles a union element into one leaf subtree.
func (c *compiler) unionLeaf(u *Union) (tree, error) {
	var node core.Node
	var cols []string
	for i, br := range u.Branches {
		bn, bc, err := c.compileQuery(br)
		if err != nil {
			return tree{}, err
		}
		if i == 0 {
			node, cols = bn, bc
			continue
		}
		if !sameSet(cols, bc) {
			return tree{}, fmt.Errorf("bgp: union branches have different columns: %v vs %v", cols, bc)
		}
		node = &core.Union{L: node, R: bn}
	}
	if !u.All {
		node = &core.Distinct{In: node}
	}
	return tree{node: node, cols: cols, label: "union"}, nil
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		if !set[v] {
			return false
		}
	}
	return true
}
