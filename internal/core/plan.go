package core

import (
	"fmt"

	"blackswan/internal/rdf"
)

// This file is the declarative query-plan layer: each of the twelve
// benchmark queries is expressed exactly once as a logical operator tree
// over the Section 2.2 triple-pattern model, and the shared executor in
// exec.go lowers that tree onto any storage scheme through the
// PhysicalSource interface. The per-scheme files (rowtriple.go, rowvert.go,
// coltriple.go, colvert.go) no longer contain query logic — only physical
// access paths.

// CountCol is the column name the Group operator appends for its count.
const CountCol = "count"

// Node is one logical plan operator. Nodes form a DAG: reusing the same
// node pointer in two places expresses a common subexpression, which the
// executor evaluates once (q6 scans its Text-typed subjects once for both
// union branches, exactly as the hand-written plans did).
type Node interface {
	node()
}

// Access reads one triple pattern from the store. Its output columns are
// the pattern's variables in (s, p, o) position order; bound positions
// produce no column. Restrict marks the access as subject to the
// interesting-properties restriction when the executed query is one of the
// paper's restricted variants (q2/q3/q4/q6 without the star).
type Access struct {
	Pattern  TriplePattern
	Restrict bool
}

// Join is the natural join of two inputs on their shared variable. The
// executor decides merge vs. hash from the inputs' ordering properties —
// the plan states only *that* the join happens, mirroring the paper's
// observation that the same logical plan gets linear merge joins on
// SO-clustered vertical tables and hash joins elsewhere.
type Join struct {
	L, R Node
	// ProbeMax licenses the index probe: when one input is a bare
	// property-bound Access joined on its subject and the other holds at
	// most ProbeMax rows, the executor seeks the access per key instead of
	// scanning it (probeIter). Zero, what PlanFor leaves, means never.
	ProbeMax int
}

// FilterNe drops rows whose Col equals Value (the "o != Text" and
// "s != conferences" predicates of q5 and q8).
type FilterNe struct {
	In    Node
	Col   string
	Value rdf.ID
}

// FilterEqCols keeps rows whose columns A and B hold equal values — the
// residual equality predicate the BGP compiler emits when a pattern shares
// more than one variable with the rest of the join tree (cyclic basic graph
// patterns): the join runs on one variable, the others are checked here.
type FilterEqCols struct {
	In   Node
	A, B string
}

// LeftJoin is the left outer natural join of two inputs on their shared
// variable — SPARQL's OPTIONAL. Every left row survives: matched rows
// extend with the right side's columns, unmatched rows carry the NULL
// sentinel (rdf.NoID, which no dictionary ever issues) in them. The BGP
// compiler never reorders joins across a LeftJoin boundary, so the
// optional side always sees the complete required side.
type LeftJoin struct {
	L, R Node
}

// ValueSource resolves dictionary identifiers to the values the
// order-sensitive operators compare: the numeric value of numeric literals
// (range filters, numeric ordering) and a total-order rendering for
// everything else. Plans are scheme-independent, so the source is the
// workload dictionary, not any engine's.
type ValueSource interface {
	// NumericValue returns the numeric value of id's term and whether the
	// term is a numeric literal.
	NumericValue(id rdf.ID) (float64, bool)
	// SortString returns a rendering of id's term under which string
	// comparison is a deterministic total order (N-Triples syntax).
	SortString(id rdf.ID) string
}

// DictValues is the rdf.Dict-backed ValueSource every compiled plan uses.
type DictValues struct {
	Dict rdf.Dict
}

// NumericValue implements ValueSource via rdf.NumericTerm.
func (d DictValues) NumericValue(id rdf.ID) (float64, bool) {
	if id == rdf.NoID {
		return 0, false
	}
	return rdf.NumericTerm(d.Dict.Term(id))
}

// SortString implements ValueSource with the N-Triples rendering.
func (d DictValues) SortString(id rdf.ID) string {
	if id == rdf.NoID {
		return ""
	}
	return d.Dict.Term(id).String()
}

// FilterRange keeps rows whose Col holds a numeric literal inside the
// interval (Lo, Hi) — closed at either end when IncLo/IncHi is set. Rows
// whose value is NULL or not a numeric literal are dropped (the SPARQL
// type-error semantics). Lo = -Inf / Hi = +Inf leave that end open; the
// compiler emits one node per comparison, so chained filters intersect.
type FilterRange struct {
	In           Node
	Col          string
	Lo, Hi       float64
	IncLo, IncHi bool
	// Num resolves identifiers to numeric values (the workload dictionary).
	Num ValueSource
}

// SortKey is one ORDER BY key of a TopN node.
type SortKey struct {
	// Col is the output column the key orders on.
	Col string
	// Desc reverses the key's comparison.
	Desc bool
	// Count marks a column holding aggregate counts: its raw uint64 values
	// compare numerically, without dictionary resolution.
	Count bool
}

// TopN sorts its input by Keys and keeps the first Limit rows — ORDER BY
// with LIMIT. Limit < 0 keeps everything (plain ORDER BY). The order is
// total: NULLs sort lowest, numeric literals next by value, all other
// terms after by their N-Triples rendering, and exhausted keys fall back
// to the raw row values — so the surviving prefix is deterministic and
// identical on every scheme (all schemes share one dictionary).
type TopN struct {
	In    Node
	Keys  []SortKey
	Limit int
	// Ord resolves identifiers for value ordering (the workload dictionary).
	Ord ValueSource
}

// Limit keeps the first N rows of its input, in the input's own order —
// SPARQL's bare LIMIT (no ORDER BY). Which rows form the prefix is the
// engine pipeline's evaluation order: deterministic for a given scheme and
// identical in every executor configuration, but not canonical across
// schemes. Limit closes its input after N rows, so upstream scans stop
// pulling batches.
type Limit struct {
	In Node
	N  int
}

// Distinct removes duplicate rows (SQL UNION's set semantics).
type Distinct struct {
	In Node
}

// Union concatenates two inputs with identical column sets (bag semantics;
// wrap in Distinct for SQL UNION).
type Union struct {
	L, R Node
}

// Group groups by Keys and appends a CountCol column with the group sizes.
type Group struct {
	In   Node
	Keys []string
}

// Having keeps rows whose Col exceeds Min — the HAVING count(*) > 1 clause.
type Having struct {
	In  Node
	Col string
	Min uint64
}

// Project keeps Cols in order; As optionally renames them (needed when a
// union branch derives the same logical entity under a different variable,
// as q6's second branch does).
type Project struct {
	In   Node
	Cols []string
	As   []string
}

func (*Access) node()       {}
func (*Join) node()         {}
func (*LeftJoin) node()     {}
func (*FilterNe) node()     {}
func (*FilterEqCols) node() {}
func (*FilterRange) node()  {}
func (*Distinct) node()     {}
func (*Union) node()        {}
func (*Group) node()        {}
func (*Having) node()       {}
func (*Project) node()      {}
func (*TopN) node()         {}
func (*Limit) node()        {}

// Plan is a logical plan analysed for execution (NewPlan): immutable once
// built, and executable on any number of sources at once.
type Plan struct {
	Root Node
	// facts is the analysis, per node of the DAG.
	facts map[Node]*facts
}

// PlanFor builds the declarative plan of q against the benchmark constants.
// The basic graph patterns come from PatternsOf, so the plan layer and the
// Table 2 coverage analysis share a single source of truth; PlanFor adds
// the parts outside the pattern space (filters, aggregation, HAVING,
// unions, projections).
func PlanFor(q Query, c Constants) (*Plan, error) {
	if !q.Valid() {
		return nil, fmt.Errorf("core: invalid query %v", q)
	}
	pats := PatternsOf(q.ID, c)
	// Restrict is decided here, at plan-build time: the marker is set only
	// when the executed query is a restricted variant, so the executor can
	// honour it without knowing which benchmark query it runs (arbitrary
	// BGP plans reuse the same executor).
	acc := func(i int, restrict bool) *Access {
		return &Access{Pattern: pats[i], Restrict: restrict && q.Restricted()}
	}
	var root Node
	switch q.ID {
	case Q1:
		// SELECT o, count(*) FROM triples WHERE p = <type> GROUP BY o.
		root = &Group{In: acc(0, false), Keys: []string{"o"}}
	case Q2:
		// Text-typed subjects joined back to all their (restricted)
		// triples, counted per property.
		root = &Group{
			In:   &Join{L: acc(0, false), R: acc(1, true)},
			Keys: []string{"p"},
		}
	case Q3:
		// As q2, grouped by (property, object) with HAVING count > 1.
		root = &Having{
			In: &Group{
				In:   &Join{L: acc(0, false), R: acc(1, true)},
				Keys: []string{"p", "o"},
			},
			Col: CountCol, Min: 1,
		}
	case Q4:
		// q3 further joined against the French-language subjects (a join,
		// not a semijoin: SQL bag semantics multiply the counts).
		j := &Join{
			L: &Join{L: acc(0, false), R: acc(1, true)},
			R: acc(2, false),
		}
		root = &Having{
			In:  &Group{In: j, Keys: []string{"p", "o"}},
			Col: CountCol, Min: 1,
		}
	case Q5:
		// DLC-origin subjects, their records targets, and the targets'
		// non-Text types.
		j := &Join{
			L: &Join{L: acc(0, false), R: acc(1, false)},
			R: &FilterNe{In: acc(2, false), Col: "t", Value: c.Text},
		}
		root = &Project{In: j, Cols: []string{"s", "t"}}
	case Q6:
		// U = Text-typed subjects ∪ subjects recording one; the union's
		// second branch reuses the first access as a common subexpression.
		a0 := acc(0, false)
		u2 := &Project{
			In:   &Join{L: acc(1, false), R: a0},
			Cols: []string{"r"}, As: []string{"s"},
		}
		u := &Distinct{In: &Union{L: a0, R: u2}}
		root = &Group{
			In:   &Join{L: u, R: acc(2, true)},
			Keys: []string{"p"},
		}
	case Q7:
		// Three subject-subject joins — the query the SO-clustered
		// vertical scheme answers with linear merge joins.
		j := &Join{
			L: &Join{L: acc(0, false), R: acc(1, false)},
			R: acc(2, false),
		}
		root = &Project{In: j, Cols: []string{"s", "e", "t"}}
	case Q8:
		// Objects related to <conferences>, joined back on object to find
		// their other subjects.
		objs := &Project{In: acc(0, false), Cols: []string{"o"}}
		b := &FilterNe{In: acc(1, false), Col: "s", Value: c.Conferences}
		root = &Project{
			In:   &Join{L: objs, R: b},
			Cols: []string{"s"},
		}
	default:
		return nil, fmt.Errorf("core: no plan for query %v", q)
	}
	p, err := NewPlan(root)
	if err != nil {
		return nil, fmt.Errorf("core: %v: %w", q, err)
	}
	if w := len(p.facts[root].cols); w != q.ResultWidth() {
		return nil, fmt.Errorf("core: %v plan produced width %d, want %d", q, w, q.ResultWidth())
	}
	return p, nil
}

// children returns a node's input nodes in evaluation order — the one
// place the plan vocabulary's tree shape is spelled out, shared by every
// structural walk (access collection, use counting, formatting).
func children(n Node) []Node {
	switch x := n.(type) {
	case *Access:
		return nil
	case *Join:
		return []Node{x.L, x.R}
	case *LeftJoin:
		return []Node{x.L, x.R}
	case *FilterNe:
		return []Node{x.In}
	case *FilterEqCols:
		return []Node{x.In}
	case *FilterRange:
		return []Node{x.In}
	case *Distinct:
		return []Node{x.In}
	case *Union:
		return []Node{x.L, x.R}
	case *Group:
		return []Node{x.In}
	case *Having:
		return []Node{x.In}
	case *Project:
		return []Node{x.In}
	case *TopN:
		return []Node{x.In}
	case *Limit:
		return []Node{x.In}
	default:
		return nil
	}
}

// Children returns n's input nodes in evaluation order — the exported
// view of children for structural walks outside the package (the
// estimator's defensive recursion, audits).
func Children(n Node) []Node { return children(n) }

// WalkPlan visits every node of a plan DAG exactly once, parents before
// children, in the same order FormatPlan numbers them. It is the exported
// structural walk the estimate-coverage audit and the workload registry's
// per-operator keys build on: any node WalkPlan yields is a node the
// formatters render and the profiler can record.
func WalkPlan(root Node, fn func(Node)) {
	seen := map[Node]bool{}
	var walk func(n Node)
	walk = func(n Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		fn(n)
		for _, c := range children(n) {
			walk(c)
		}
	}
	walk(root)
}
