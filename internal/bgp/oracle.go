package bgp

import (
	"fmt"
	"sort"
	"strconv"

	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// This file is the executable oracle of the query language: a naive
// reference evaluator, independent of the plan layer and both engines,
// that the property tests validate every scheme against (the black-box
// checking strategy — engines are compared to a model, not only to each
// other). It covers the full language: basic graph patterns, filters
// (inequality and numeric range), UNION, OPTIONAL, aggregation with
// HAVING, projection, DISTINCT, and ORDER BY with LIMIT. It reads the
// graph itself, through one linear filter (match), never a storage scheme.
//
// The implementation works on solution mappings (variable → identifier),
// the SPARQL model, rather than on relations: patterns extend mappings,
// OPTIONAL keeps unextended mappings with the block's variables unbound,
// and unbound variables materialize as rdf.NoID — the same NULL sentinel
// the compiled plans use, so results compare exactly.

// EvalBGP evaluates q naively over the graph g, resolving terms in g's
// dictionary. interesting is the catalog's interesting-property list for
// RESTRICT patterns (nil when the query uses none). It returns the result
// rows, the output column names, and an error for queries outside the
// evaluatable language (the same class the compiler rejects).
func EvalBGP(q *Query, g *rdf.Graph, interesting []rdf.ID) (*rel.Rel, []string, error) {
	ev := &evaluator{g: g, dict: g.Dict}
	if len(interesting) > 0 {
		ev.interesting = make(map[rdf.ID]bool, len(interesting))
		for _, p := range interesting {
			ev.interesting[p] = true
		}
	}
	return ev.evalQuery(q)
}

// binding is one solution mapping; absent variables are unbound (NULL).
type binding map[string]uint64

type evaluator struct {
	g           *rdf.Graph
	dict        rdf.Dict
	interesting map[rdf.ID]bool
}

// evalQuery evaluates one (sub-)query: WHERE block, aggregation, HAVING,
// projection, DISTINCT and ORDER BY / LIMIT.
func (ev *evaluator) evalQuery(q *Query) (*rel.Rel, []string, error) {
	sols, schema, err := ev.evalElems(q.Where)
	if err != nil {
		return nil, nil, err
	}
	bound := map[string]bool{}
	for _, v := range schema {
		bound[v] = true
	}

	hasCount := false
	for _, s := range q.Select {
		if s.Count {
			hasCount = true
		}
	}
	agg := hasCount || len(q.GroupBy) > 0
	if q.Having != nil && !agg {
		return nil, nil, fmt.Errorf("bgp oracle: HAVING requires GROUP BY")
	}
	if agg {
		if len(q.GroupBy) == 0 {
			return nil, nil, fmt.Errorf("bgp oracle: COUNT requires GROUP BY")
		}
		// Mirror the compiler's engine-imposed key limit so invalid queries
		// fail on both sides of a differential test rather than evaluating
		// here and erroring there.
		if len(q.GroupBy) > 2 {
			return nil, nil, fmt.Errorf("bgp oracle: GROUP BY supports at most 2 keys, got %d", len(q.GroupBy))
		}
		for _, k := range q.GroupBy {
			if !bound[k] {
				return nil, nil, fmt.Errorf("bgp oracle: GROUP BY variable ?%s not bound", k)
			}
		}
		sols = groupCount(sols, q.GroupBy)
		schema = append(append([]string(nil), q.GroupBy...), core.CountCol)
		bound = map[string]bool{}
		for _, v := range schema {
			bound[v] = true
		}
	}
	if q.Having != nil {
		kept := sols[:0]
		for _, b := range sols {
			if b[core.CountCol] > *q.Having {
				kept = append(kept, b)
			}
		}
		sols = kept
	}

	// Projection.
	var srcVars, names []string
	if q.Select == nil {
		if agg {
			srcVars = schema
		} else {
			srcVars = q.Vars()
		}
		names = srcVars
	} else {
		for _, s := range q.Select {
			from := s.Var
			if s.Count {
				from = core.CountCol
			}
			srcVars = append(srcVars, from)
			names = append(names, s.Name())
		}
	}
	seen := map[string]bool{}
	for i, v := range srcVars {
		if !bound[v] {
			return nil, nil, fmt.Errorf("bgp oracle: selected variable ?%s not bound", v)
		}
		if seen[names[i]] {
			return nil, nil, fmt.Errorf("bgp oracle: duplicate output column %q", names[i])
		}
		seen[names[i]] = true
	}
	if len(srcVars) == 0 {
		return nil, nil, fmt.Errorf("bgp oracle: empty projection")
	}
	out := rel.NewCap(len(srcVars), len(sols))
	row := make([]uint64, len(srcVars))
	for _, b := range sols {
		for i, v := range srcVars {
			row[i] = b[v] // absent → 0 == rdf.NoID: NULL
		}
		out.Data = append(out.Data, row...)
	}

	if q.Distinct {
		out = dedupeRows(out)
	}
	if len(q.OrderBy) > 0 {
		counts := countColsOf(q)
		if err := ev.orderRows(out, q.OrderBy, names, counts); err != nil {
			return nil, nil, err
		}
		if q.Limit != nil && out.Len() > int(*q.Limit) {
			out.Data = out.Data[:int(*q.Limit)*out.W]
		}
	}
	return out, names, nil
}

// evalElems evaluates one block: patterns and unions join in textual
// order, then filters apply, then OPTIONAL blocks left-join — mirroring
// the compiled semantics (filters never see optional bindings; optionals
// see the complete required part).
func (ev *evaluator) evalElems(elems []Element) ([]binding, []string, error) {
	sols := []binding{{}}
	var schema []string
	bound := map[string]bool{}
	addVar := func(v string) {
		if v != "" && !bound[v] {
			bound[v] = true
			schema = append(schema, v)
		}
	}

	var filters []Element
	var optionals []*Optional
	seenPat := map[Pattern]bool{}
	for _, e := range elems {
		switch x := e.(type) {
		case Pattern:
			// Identical patterns add nothing to a conjunction.
			if seenPat[x] {
				continue
			}
			seenPat[x] = true
			var err error
			sols, err = ev.joinPattern(sols, bound, x)
			if err != nil {
				return nil, nil, err
			}
			for _, t := range []Term{x.S, x.P, x.O} {
				addVar(t.Var)
			}
		case *Union:
			usols, ucols, err := ev.evalUnion(x)
			if err != nil {
				return nil, nil, err
			}
			sols = hashJoin(sols, usols, shared(bound, ucols))
			for _, c := range ucols {
				addVar(c)
			}
		case Filter, RangeFilter:
			filters = append(filters, x)
		case *Optional:
			optionals = append(optionals, x)
		}
	}

	for _, e := range filters {
		var err error
		sols, err = ev.applyFilter(sols, bound, e)
		if err != nil {
			return nil, nil, err
		}
	}

	for _, opt := range optionals {
		osols, ocols, err := ev.evalElems(opt.Where)
		if err != nil {
			return nil, nil, err
		}
		sols = leftJoin(sols, osols, shared(bound, ocols))
		for _, c := range ocols {
			addVar(c)
		}
	}
	return sols, schema, nil
}

// joinPattern extends every solution with the pattern's matches.
func (ev *evaluator) joinPattern(sols []binding, bound map[string]bool, p Pattern) ([]binding, error) {
	rows, slots, err := ev.matchPattern(p)
	if err != nil {
		return nil, err
	}
	// Join variables: pattern variables already in the schema.
	var joinVars []string
	seen := map[string]bool{}
	for _, sl := range slots {
		if bound[sl.name] && !seen[sl.name] {
			seen[sl.name] = true
			joinVars = append(joinVars, sl.name)
		}
	}
	// Index pattern rows by join-variable values.
	type key string
	idx := make(map[key][]binding, len(rows))
	buf := make([]byte, 0, 8*len(joinVars))
	keyOf := func(b binding) key {
		buf = buf[:0]
		for _, v := range joinVars {
			x := b[v]
			buf = append(buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
				byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
		}
		return key(buf)
	}
	for _, r := range rows {
		idx[keyOf(r)] = append(idx[keyOf(r)], r)
	}
	var out []binding
	for _, s := range sols {
		for _, r := range idx[keyOf(s)] {
			nb := make(binding, len(s)+len(r))
			for k, v := range s {
				nb[k] = v
			}
			for k, v := range r {
				nb[k] = v
			}
			out = append(out, nb)
		}
	}
	return out, nil
}

// match is the oracle's only data access: a linear filter over the graph's
// triples, c holding each position's constant (rdf.NoID leaves it unbound).
// No engine, no index, no charges: what the oracle says shares no code with
// the scans under test.
func (ev *evaluator) match(c [3]rdf.ID) []rdf.Triple {
	var out []rdf.Triple
	for _, t := range ev.g.Triples {
		if (c[0] == rdf.NoID || t.S == c[0]) && (c[1] == rdf.NoID || t.P == c[1]) && (c[2] == rdf.NoID || t.O == c[2]) {
			out = append(out, t)
		}
	}
	return out
}

type oracleSlot struct {
	name string
	pos  int
}

// matchPattern returns the pattern's matches as bindings over its
// variables, honouring constants, intra-pattern variable repetition and
// the RESTRICT marker.
func (ev *evaluator) matchPattern(p Pattern) ([]binding, []oracleSlot, error) {
	var consts [3]rdf.ID
	var slots []oracleSlot
	missing := false
	for i, t := range []Term{p.S, p.P, p.O} {
		if t.IsVar() {
			slots = append(slots, oracleSlot{t.Var, i})
			continue
		}
		id, ok := ev.dict.Lookup(rdf.Term{Value: t.Value, Kind: t.Kind})
		if !ok {
			missing = true
		}
		consts[i] = id
	}
	if len(slots) == 0 {
		return nil, nil, fmt.Errorf("bgp oracle: pattern %s %s %s binds no variable", p.S, p.P, p.O)
	}
	if missing {
		// A constant outside the dictionary matches nothing.
		return nil, slots, nil
	}
	// The interesting-properties restriction only constrains accesses whose
	// property is unbound, matching the executor's lowering.
	restrict := p.Restrict && p.P.IsVar()
	var out []binding
	for _, t := range ev.match(consts) {
		if restrict && ev.interesting != nil && !ev.interesting[t.P] {
			continue
		}
		r := [3]uint64{uint64(t.S), uint64(t.P), uint64(t.O)}
		b := make(binding, len(slots))
		ok := true
		for _, sl := range slots {
			if prev, dup := b[sl.name]; dup && prev != r[sl.pos] {
				ok = false
				break
			}
			b[sl.name] = r[sl.pos]
		}
		if ok {
			out = append(out, b)
		}
	}
	return out, slots, nil
}

// evalUnion evaluates a union element into bindings over its column set.
func (ev *evaluator) evalUnion(u *Union) ([]binding, []string, error) {
	var all *rel.Rel
	var cols []string
	for i, br := range u.Branches {
		r, c, err := ev.evalQuery(br)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			all, cols = r, c
			continue
		}
		// Align branch columns to the first branch's order.
		perm := make([]int, len(cols))
		for j, want := range cols {
			found := -1
			for k, have := range c {
				if have == want {
					found = k
					break
				}
			}
			if found < 0 {
				return nil, nil, fmt.Errorf("bgp oracle: union branches have different columns: %v vs %v", cols, c)
			}
			perm[j] = found
		}
		if len(c) != len(cols) {
			return nil, nil, fmt.Errorf("bgp oracle: union branches have different columns: %v vs %v", cols, c)
		}
		all.Data = append(all.Data, r.Project(perm...).Data...)
	}
	if !u.All {
		all = dedupeRows(all)
	}
	out := make([]binding, 0, all.Len())
	for i := 0; i < all.Len(); i++ {
		r := all.Row(i)
		b := make(binding, len(cols))
		for j, c := range cols {
			b[c] = r[j]
		}
		out = append(out, b)
	}
	return out, cols, nil
}

// applyFilter keeps the solutions satisfying one filter element.
func (ev *evaluator) applyFilter(sols []binding, bound map[string]bool, e Element) ([]binding, error) {
	switch f := e.(type) {
	case Filter:
		if !bound[f.Var] {
			return nil, fmt.Errorf("bgp oracle: FILTER variable ?%s not bound", f.Var)
		}
		id := rdf.NoID
		if got, ok := ev.dict.Lookup(rdf.Term{Value: f.Not.Value, Kind: f.Not.Kind}); ok {
			id = got
		}
		out := sols[:0]
		for _, b := range sols {
			if b[f.Var] != uint64(id) {
				out = append(out, b)
			}
		}
		return out, nil
	case RangeFilter:
		if !bound[f.Var] {
			return nil, fmt.Errorf("bgp oracle: FILTER variable ?%s not bound", f.Var)
		}
		out := sols[:0]
		for _, b := range sols {
			v, ok := ev.numeric(b[f.Var])
			if !ok {
				continue
			}
			keep := false
			switch f.Op {
			case "<":
				keep = v < f.Val
			case "<=":
				keep = v <= f.Val
			case ">":
				keep = v > f.Val
			case ">=":
				keep = v >= f.Val
			}
			if keep {
				out = append(out, b)
			}
		}
		return out, nil
	}
	return sols, nil
}

// numeric resolves an identifier to its numeric literal value, with the
// oracle's own parse (independent of the engines' predicate closures).
func (ev *evaluator) numeric(id uint64) (float64, bool) {
	if id == uint64(rdf.NoID) {
		return 0, false
	}
	t := ev.dict.Term(rdf.ID(id))
	if t.Kind != rdf.Literal {
		return 0, false
	}
	for i := 0; i < len(t.Value); i++ {
		c := t.Value[i]
		if (c >= '0' && c <= '9') || c == '.' || (i == 0 && (c == '-' || c == '+')) {
			continue
		}
		return 0, false
	}
	v, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// shared returns the right-side columns already bound on the left.
func shared(bound map[string]bool, cols []string) []string {
	var out []string
	for _, c := range cols {
		if bound[c] {
			out = append(out, c)
		}
	}
	return out
}

// hashJoin inner-joins two binding sets on the given variables.
func hashJoin(l, r []binding, on []string) []binding {
	idx := indexBindings(r, on)
	var out []binding
	for _, lb := range l {
		for _, rb := range idx[bindingKey(lb, on)] {
			nb := make(binding, len(lb)+len(rb))
			for k, v := range lb {
				nb[k] = v
			}
			for k, v := range rb {
				nb[k] = v
			}
			out = append(out, nb)
		}
	}
	return out
}

// leftJoin keeps every left binding; unmatched ones stay unextended (the
// optional block's variables remain unbound). A left binding whose join
// variable is itself unbound never matches — unbound compares as NoID,
// which no real binding carries — mirroring the compiled LeftJoin.
func leftJoin(l, r []binding, on []string) []binding {
	idx := indexBindings(r, on)
	var out []binding
	for _, lb := range l {
		matches := idx[bindingKey(lb, on)]
		if len(matches) == 0 {
			out = append(out, lb)
			continue
		}
		for _, rb := range matches {
			nb := make(binding, len(lb)+len(rb))
			for k, v := range lb {
				nb[k] = v
			}
			for k, v := range rb {
				nb[k] = v
			}
			out = append(out, nb)
		}
	}
	return out
}

func indexBindings(bs []binding, on []string) map[string][]binding {
	idx := make(map[string][]binding, len(bs))
	for _, b := range bs {
		k := bindingKey(b, on)
		idx[k] = append(idx[k], b)
	}
	return idx
}

func bindingKey(b binding, on []string) string {
	buf := make([]byte, 0, 8*len(on))
	for _, v := range on {
		x := b[v]
		buf = append(buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
			byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
	}
	return string(buf)
}

// groupCount groups solutions by the key variables and emits one binding
// per group carrying the keys and the count under core.CountCol.
func groupCount(sols []binding, keys []string) []binding {
	type gkey string
	counts := map[gkey]uint64{}
	reps := map[gkey]binding{}
	for _, b := range sols {
		k := gkey(bindingKey(b, keys))
		counts[k]++
		if _, ok := reps[k]; !ok {
			rep := make(binding, len(keys))
			for _, v := range keys {
				rep[v] = b[v]
			}
			reps[k] = rep
		}
	}
	out := make([]binding, 0, len(counts))
	for k, n := range counts {
		b := reps[k]
		b[core.CountCol] = n
		out = append(out, b)
	}
	// Deterministic order (the caller sorts again for ORDER BY; bags are
	// compared order-insensitively, but determinism helps debugging).
	sort.Slice(out, func(i, j int) bool {
		for _, v := range keys {
			if out[i][v] != out[j][v] {
				return out[i][v] < out[j][v]
			}
		}
		return false
	})
	return out
}

// dedupeRows removes duplicate rows, keeping first occurrences.
func dedupeRows(r *rel.Rel) *rel.Rel {
	out := rel.New(r.W)
	seen := map[string]bool{}
	buf := make([]byte, 0, 8*r.W)
	n := r.Len()
	for i := 0; i < n; i++ {
		row := r.Row(i)
		buf = buf[:0]
		for _, v := range row {
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
		if !seen[string(buf)] {
			seen[string(buf)] = true
			out.Data = append(out.Data, row...)
		}
	}
	return out
}

// orderRows sorts rows in place under the language's ORDER BY semantics —
// implemented here independently of core.SortLess: NULL first, numeric
// literals by value, other terms by N-Triples rendering, count columns by
// raw value, DESC reversing each key, ties broken by the full row
// ascending.
func (ev *evaluator) orderRows(r *rel.Rel, keys []OrderKey, cols []string, counts map[string]bool) error {
	type k struct {
		col   int
		desc  bool
		count bool
	}
	ks := make([]k, len(keys))
	for i, key := range keys {
		ci := -1
		for j, c := range cols {
			if c == key.Var {
				ci = j
				break
			}
		}
		if ci < 0 {
			return fmt.Errorf("bgp oracle: ORDER BY variable ?%s is not an output column", key.Var)
		}
		ks[i] = k{col: ci, desc: key.Desc, count: counts[key.Var]}
	}
	n := r.Len()
	rows := make([][]uint64, n)
	for i := 0; i < n; i++ {
		rows[i] = append([]uint64(nil), r.Row(i)...)
	}
	cmpVal := func(a, b uint64) int {
		if a == b {
			return 0
		}
		class := func(v uint64) int {
			if v == uint64(rdf.NoID) {
				return 0
			}
			if _, ok := ev.numeric(v); ok {
				return 1
			}
			return 2
		}
		ca, cb := class(a), class(b)
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		switch ca {
		case 1:
			na, _ := ev.numeric(a)
			nb, _ := ev.numeric(b)
			if na < nb {
				return -1
			}
			if na > nb {
				return 1
			}
		case 2:
			sa := ev.dict.Term(rdf.ID(a)).String()
			sb := ev.dict.Term(rdf.ID(b)).String()
			if sa < sb {
				return -1
			}
			if sa > sb {
				return 1
			}
		}
		return 0
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for _, key := range ks {
			var c int
			switch {
			case key.count:
				switch {
				case a[key.col] < b[key.col]:
					c = -1
				case a[key.col] > b[key.col]:
					c = 1
				}
			default:
				c = cmpVal(a[key.col], b[key.col])
			}
			if key.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	r.Data = r.Data[:0]
	for _, row := range rows {
		r.Data = append(r.Data, row...)
	}
	return nil
}
