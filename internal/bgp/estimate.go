package bgp

import (
	"blackswan/internal/core"
	"blackswan/internal/rdf"
)

// Estimator is the compiler's selectivity model: it estimates how many
// triples a pattern matches and how many distinct bindings a variable
// takes, from the data set's statistics (rdf.Stats plus the per-property
// cardinalities of rdf.PropDetails). The estimates drive the greedy
// smallest-intermediate-first join ordering; they only need to rank
// alternatives, not be exact.
type Estimator struct {
	st *rdf.Stats
	pd map[rdf.ID]rdf.PropDetail
	// restrictedTriples and restrictedProps describe the interesting-
	// property subset, used for accesses carrying the Restrict marker.
	restrictedTriples float64
	restrictedProps   int
}

// NewEstimator computes the statistics the compiler needs from a graph.
// interesting is the catalog's interesting-property list (may be nil when
// no query uses RESTRICT).
func NewEstimator(g *rdf.Graph, interesting []rdf.ID) *Estimator {
	st := rdf.ComputeStats(g)
	e := &Estimator{st: st, pd: rdf.PropDetails(g), restrictedProps: len(interesting)}
	for _, p := range interesting {
		e.restrictedTriples += float64(st.PropertyCard(p))
	}
	return e
}

// fallback cardinalities of the nil estimator: patterns rank purely by how
// many positions they bind. Good enough to order joins sensibly when no
// statistics are available.
const (
	defCard     = 1e4
	defDistinct = 1e3
)

func clamp(v float64) float64 {
	if v < 0.01 {
		return 0.01
	}
	return v
}

// PatternCard estimates the number of triples matching tp (restrict marks
// the interesting-properties restriction on an unbound-property pattern).
func (e *Estimator) PatternCard(tp core.TriplePattern, restrict bool) float64 {
	sB, pB, oB := tp.S.Bound(), tp.P.Bound(), tp.O.Bound()
	if e == nil {
		n := defCard
		for _, b := range []bool{sB, pB, oB} {
			if b {
				n /= 100
			}
		}
		return clamp(n)
	}
	if pB {
		base := float64(e.st.PropertyCard(tp.P.Const))
		d := e.pd[tp.P.Const]
		if sB {
			base /= clamp(float64(d.Subjects))
		}
		if oB {
			base /= clamp(float64(d.Objects))
		}
		return clamp(base)
	}
	total := float64(e.st.Triples)
	scale := 1.0
	if restrict && total > 0 {
		scale = e.restrictedTriples / total
	}
	switch {
	case sB && oB:
		return clamp(float64(e.st.SubjectCard(tp.S.Const)) *
			float64(e.st.ObjectCard(tp.O.Const)) / clamp(total) * scale)
	case sB:
		return clamp(float64(e.st.SubjectCard(tp.S.Const)) * scale)
	case oB:
		return clamp(float64(e.st.ObjectCard(tp.O.Const)) * scale)
	default:
		return clamp(total * scale)
	}
}

// defaultRangeSel is the selectivity assumed for a numeric range filter
// when no per-property numeric statistics apply — the classic textbook
// one-third.
const defaultRangeSel = 1.0 / 3

// RangeSelectivity estimates the fraction of tp's rows a numeric range
// filter [lo, hi] on variable v keeps. When v is the object position of a
// bound-property pattern, the property's numeric profile from
// rdf.PropDetails applies: the fraction of rows with numeric objects times
// the uniform-assumption overlap of [lo, hi] with [NumMin, NumMax].
// Everything else falls back to the generic one-third.
func (e *Estimator) RangeSelectivity(tp core.TriplePattern, v string, lo, hi float64) float64 {
	if e == nil || !tp.P.Bound() || tp.O.Var != v {
		return defaultRangeSel
	}
	d := e.pd[tp.P.Const]
	card := float64(e.st.PropertyCard(tp.P.Const))
	if d.NumRows == 0 || card <= 0 {
		// No numeric objects under this property: the filter drops
		// (almost) everything.
		return 0.01
	}
	numFrac := float64(d.NumRows) / card
	span := d.NumMax - d.NumMin
	var overlap float64
	if span <= 0 {
		// Single-valued property: in or out.
		if d.NumMin >= lo && d.NumMin <= hi {
			overlap = 1
		} else {
			overlap = 0.01
		}
	} else {
		l := max(lo, d.NumMin)
		h := min(hi, d.NumMax)
		overlap = (h - l) / span
		if overlap < 0.01 {
			overlap = 0.01
		}
		if overlap > 1 {
			overlap = 1
		}
	}
	sel := numFrac * overlap
	if sel < 0.001 {
		sel = 0.001
	}
	return sel
}

// varDistinct estimates the number of distinct bindings variable v takes in
// tp, from the position(s) it occupies.
func (e *Estimator) varDistinct(tp core.TriplePattern, restrict bool, v string) float64 {
	best := 0.0
	consider := func(d float64) {
		if best == 0 || d < best {
			best = d
		}
	}
	if tp.S.Var == v {
		switch {
		case e == nil:
			consider(defDistinct)
		case tp.P.Bound():
			consider(float64(e.pd[tp.P.Const].Subjects))
		default:
			consider(float64(e.st.DistinctSubjects))
		}
	}
	if tp.P.Var == v {
		switch {
		case e == nil:
			consider(defDistinct)
		case restrict:
			consider(float64(e.restrictedProps))
		default:
			consider(float64(e.st.DistinctProperties))
		}
	}
	if tp.O.Var == v {
		switch {
		case e == nil:
			consider(defDistinct)
		case tp.P.Bound():
			consider(float64(e.pd[tp.P.Const].Objects))
		default:
			consider(float64(e.st.DistinctObjects))
		}
	}
	return clamp(best)
}

// nodeEst is the estimator's view of one plan subtree: output cardinality
// plus per-variable distinct counts.
type nodeEst struct {
	card float64
	nd   map[string]float64
}

// joinCard estimates the natural-join output size of two subtrees over
// their shared variables, by the standard independence formula.
func joinCard(a, b nodeEst, shared []string) float64 {
	out := a.card * b.card
	for _, v := range shared {
		out /= clamp(max(a.nd[v], b.nd[v]))
	}
	return clamp(out)
}

// Estimate prices a plan built outside the compiler, such as a hand-tuned
// core.PlanFor tree, under the model Compile prices its own plans by: it
// returns the plan analysed, every node's estimated output rows in its node
// table, and its cost, as Compiled carries them.
func Estimate(root core.Node, e *Estimator) (*core.Plan, float64, error) {
	return newCoster(e).price(root)
}

// coster is the one cardinality estimate of a plan: a memo over its nodes,
// filled bottom-up as the compiler builds them and completed by price.
type coster struct {
	e    *Estimator
	memo map[core.Node]nodeEst
}

func newCoster(e *Estimator) *coster {
	return &coster{e: e, memo: map[core.Node]nodeEst{}}
}

// price analyses the plan under root with every node's estimate in its
// node table, and sums the cost over that table: the estimated Access, Join
// and LeftJoin cardinalities, children first, each shared subexpression once.
func (c *coster) price(root core.Node) (*core.Plan, float64, error) {
	p, err := core.NewPlan(root, func(n core.Node) float64 { return c.estimate(n).card })
	if err != nil {
		return nil, 0, err
	}
	var cost float64
	for _, in := range p.Nodes() {
		switch in.Node.(type) {
		case *core.Access, *core.Join, *core.LeftJoin:
			cost += in.EstRows
		}
	}
	return p, cost, nil
}

// estimate returns n's estimate, computing it (and its inputs') on first
// use. It mirrors the executor's column semantics closely enough to track
// variables through projections and renames, for every node kind (NewPlan
// accepts no other).
func (c *coster) estimate(n core.Node) nodeEst {
	if est, ok := c.memo[n]; ok {
		return est
	}
	var est nodeEst
	switch x := n.(type) {
	case *core.Access:
		card := c.e.PatternCard(x.Pattern, x.Restrict)
		nd := map[string]float64{}
		for _, t := range []core.TermRef{x.Pattern.S, x.Pattern.P, x.Pattern.O} {
			if !t.Bound() && t.Var != "" {
				nd[t.Var] = min(c.e.varDistinct(x.Pattern, x.Restrict, t.Var), card)
			}
		}
		est = nodeEst{card: card, nd: nd}
	case *core.Join:
		est = c.join(x.L, x.R, false)
	case *core.LeftJoin:
		est = c.join(x.L, x.R, true)
	case *core.FilterNe:
		in := c.estimate(x.In)
		est = scaleEst(in, 0.9)
	case *core.FilterEqCols:
		in := c.estimate(x.In)
		est = scaleEst(in, 1/clamp(max(in.nd[x.A], in.nd[x.B])))
	case *core.FilterRange:
		// A range folded onto a pattern is priced by that pattern's
		// numeric statistics; anything else by the generic one-third.
		sel := defaultRangeSel
		if a := accessBelow(x.In); a != nil {
			sel = c.e.RangeSelectivity(a.Pattern, x.Col, x.Lo, x.Hi)
		}
		est = scaleEst(c.estimate(x.In), sel)
	case *core.Distinct:
		est = c.estimate(x.In)
	case *core.Union:
		l, r := c.estimate(x.L), c.estimate(x.R)
		nd := map[string]float64{}
		for v, d := range l.nd {
			nd[v] = d + r.nd[v]
		}
		est = nodeEst{card: l.card + r.card, nd: nd}
	case *core.Group:
		in := c.estimate(x.In)
		card := 1.0
		nd := map[string]float64{}
		for _, k := range x.Keys {
			card *= clamp(in.nd[k])
			nd[k] = in.nd[k]
		}
		card = min(card, in.card)
		nd[core.CountCol] = card
		est = nodeEst{card: clamp(card), nd: nd}
	case *core.Having:
		in := c.estimate(x.In)
		est = scaleEst(in, 0.5)
	case *core.Project:
		in := c.estimate(x.In)
		nd := map[string]float64{}
		for i, col := range x.Cols {
			name := col
			if x.As != nil {
				name = x.As[i]
			}
			nd[name] = in.nd[col]
		}
		est = nodeEst{card: in.card, nd: nd}
	case *core.TopN:
		in := c.estimate(x.In)
		card := in.card
		if x.Limit >= 0 {
			card = min(card, float64(x.Limit))
		}
		est = scaleEst(in, card/clamp(in.card))
	case *core.Limit:
		in := c.estimate(x.In)
		card := min(in.card, float64(x.N))
		est = scaleEst(in, card/clamp(in.card))
	}
	c.memo[n] = est
	return est
}

func scaleEst(in nodeEst, f float64) nodeEst {
	card := clamp(in.card * f)
	nd := map[string]float64{}
	for v, d := range in.nd {
		nd[v] = min(d, card)
	}
	return nodeEst{card: card, nd: nd}
}

// join estimates a natural join of l and r over the variables they share;
// outer marks a left outer join, which keeps every left row, so its result
// is at least the left side and matched rows can multiply it up to the
// inner-join estimate.
func (c *coster) join(l, r core.Node, outer bool) nodeEst {
	le, re := c.estimate(l), c.estimate(r)
	var shared []string
	for v := range le.nd {
		if _, ok := re.nd[v]; ok {
			shared = append(shared, v)
		}
	}
	card := joinCard(le, re, shared)
	if outer {
		card = max(le.card, card)
	}
	nd := map[string]float64{}
	for v, d := range le.nd {
		nd[v] = min(d, card)
	}
	for v, d := range re.nd {
		if cur, ok := nd[v]; ok {
			nd[v] = min(cur, d)
		} else {
			nd[v] = min(d, card)
		}
	}
	return nodeEst{card: card, nd: nd}
}

// accessBelow returns the pattern access under a chain of filters, or nil
// when the chain ends in anything else.
func accessBelow(n core.Node) *core.Access {
	for {
		switch x := n.(type) {
		case *core.Access:
			return x
		case *core.FilterNe:
			n = x.In
		case *core.FilterRange:
			n = x.In
		default:
			return nil
		}
	}
}
