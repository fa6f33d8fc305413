package rowstore

import (
	"fmt"
	"sort"

	"blackswan/internal/btree"
	"blackswan/internal/rel"
)

// Costs holds the engine's per-tuple CPU cost model in baseline nanoseconds.
// Row stores interpret tuple-at-a-time plans, so these constants are roughly
// an order of magnitude above the column-store's per-value costs — the
// mechanical source of the paper's row-vs-column performance gap.
type Costs struct {
	ScanTuple     int64 // emit one tuple from a scan
	FilterTuple   int64 // evaluate one residual predicate
	HashBuild     int64 // insert one tuple into a hash table
	HashProbe     int64 // probe one tuple against a hash table
	MergeTuple    int64 // advance one tuple in a merge join
	GroupTuple    int64 // aggregate one tuple
	UnionTuple    int64 // move one tuple through a union
	DistinctTuple int64 // deduplicate one tuple
	SortTuple     int64 // one comparison while sorting (ORDER BY / TopN)
	NodeStartup   int64 // open one plan node (optimizer + executor setup)
}

// DefaultCosts returns the calibrated row-store model.
func DefaultCosts() Costs {
	return Costs{
		ScanTuple:     90,
		FilterTuple:   25,
		HashBuild:     140,
		HashProbe:     110,
		MergeTuple:    60,
		GroupTuple:    130,
		UnionTuple:    100,
		DistinctTuple: 110,
		SortTuple:     70,
		NodeStartup:   25_000,
	}
}

// node charges the fixed cost of opening one plan node. Plans over the
// vertically-partitioned schema contain hundreds of nodes ("each query
// contains more than two hundred unions and joins"), so this charge is what
// stresses the optimizer in the reproduction, as it does in the paper.
func (e *Engine) node() { e.Store.ChargeCPU(e.Costs.NodeStartup) }

// SecondaryScanThreshold is the optimizer's classic selectivity cutoff: an
// unclustered index is only chosen when the estimated range fraction stays
// below it; wider ranges scan the clustered index instead. This rule is what
// makes the SPO-clustered triple-store pay a full table scan for
// property-bound queries (25% of all triples carry <type>), while the
// PSO-clustered variant answers them with a cheap clustered range — the
// paper's central row-store finding.
const SecondaryScanThreshold = 0.10

// pickIndex selects the access path for a conjunctive equality query: the
// index with the longest usable bound prefix, demoting unclustered indices
// whose range estimate exceeds SecondaryScanThreshold. Clustered indices win
// ties (their leaves are the table and range I/O is sequential).
func pickIndex(t *Table, bound map[int]uint64) (*Index, int) {
	best := t.Clustered
	bestLen := prefixLen(t.Clustered.Perm, bound)
	for _, ix := range t.Secondary {
		l := prefixLen(ix.Perm, bound)
		if l <= bestLen {
			continue
		}
		var prefix btree.Key
		for j := 0; j < l; j++ {
			prefix[j] = bound[ix.Perm[j]]
		}
		if ix.Tree.EstimatePrefixFraction(prefix, l) > SecondaryScanThreshold {
			continue
		}
		best, bestLen = ix, l
	}
	return best, bestLen
}

func prefixLen(p Perm, bound map[int]uint64) int {
	n := 0
	for _, col := range p {
		if _, ok := bound[col]; !ok {
			break
		}
		n++
	}
	return n
}

// ScanEq returns all rows of t whose columns match every binding in bound,
// in logical column order. The access path is chosen by pickIndex; bindings
// not covered by the index prefix are applied as residual filters.
func (e *Engine) ScanEq(t *Table, bound map[int]uint64) *rel.Rel {
	e.node()
	ix, plen := pickIndex(t, bound)
	var prefix btree.Key
	for j := 0; j < plen; j++ {
		prefix[j] = bound[ix.Perm[j]]
	}
	out := rel.New(t.Width)
	c := e.Costs
	residual := len(bound) > plen
	// Per-tuple costs are summed locally and charged once per scan: the
	// total is identical, and the store's accounting lock is taken once
	// instead of once per tuple — what lets parallel per-property scans
	// actually overlap.
	var tuples int64
	e.scanIndex(ix, prefix, plen, func(row []uint64) {
		tuples++
		if residual {
			for col, v := range bound {
				if row[col] != v {
					return
				}
			}
		}
		out.Data = append(out.Data, row...)
	})
	cost := tuples * c.ScanTuple
	if residual {
		cost += tuples * c.FilterTuple
	}
	e.Store.ChargeCPU(cost)
	return out
}

// ScanAll returns the whole table via its clustered index.
func (e *Engine) ScanAll(t *Table) *rel.Rel {
	return e.ScanEq(t, nil)
}

// scanIndex walks one index range, handing rows to f in logical order.
func (e *Engine) scanIndex(ix *Index, prefix btree.Key, plen int, f func(row []uint64)) {
	w := ix.Tree.Width()
	row := make([]uint64, w)
	ix.Tree.ScanPrefix(prefix, plen, func(k btree.Key) bool {
		for j := 0; j < w; j++ {
			row[ix.Perm[j]] = k[j]
		}
		f(row)
		return true
	})
}

// Exists reports whether a row matching all bound columns exists — the
// point-query triple pattern p1.
func (e *Engine) Exists(t *Table, bound map[int]uint64) bool {
	e.node()
	ix, plen := pickIndex(t, bound)
	var prefix btree.Key
	for j := 0; j < plen; j++ {
		prefix[j] = bound[ix.Perm[j]]
	}
	found := false
	w := ix.Tree.Width()
	row := make([]uint64, w)
	ix.Tree.ScanPrefix(prefix, plen, func(k btree.Key) bool {
		e.Store.ChargeCPU(e.Costs.ScanTuple)
		for j := 0; j < w; j++ {
			row[ix.Perm[j]] = k[j]
		}
		for col, v := range bound {
			if row[col] != v {
				return true // keep scanning the range
			}
		}
		found = true
		return false
	})
	return found
}

// FilterEq keeps rows with row[col] == v.
func (e *Engine) FilterEq(r *rel.Rel, col int, v uint64) *rel.Rel {
	return e.filter(r, func(row []uint64) bool { return row[col] == v })
}

// FilterNe keeps rows with row[col] != v.
func (e *Engine) FilterNe(r *rel.Rel, col int, v uint64) *rel.Rel {
	return e.filter(r, func(row []uint64) bool { return row[col] != v })
}

// FilterIn keeps rows whose col value is in set.
func (e *Engine) FilterIn(r *rel.Rel, col int, set map[uint64]bool) *rel.Rel {
	return e.filter(r, func(row []uint64) bool { return set[row[col]] })
}

// FilterEqCol keeps rows whose columns a and b hold equal values — the
// residual equality predicate of cyclic basic graph patterns.
func (e *Engine) FilterEqCol(r *rel.Rel, a, b int) *rel.Rel {
	return e.filter(r, func(row []uint64) bool { return row[a] == row[b] })
}

func (e *Engine) filter(r *rel.Rel, pred func([]uint64) bool) *rel.Rel {
	e.node()
	out := rel.New(r.W)
	n := r.Len()
	e.Store.ChargeCPU(int64(n) * e.Costs.FilterTuple)
	for i := 0; i < n; i++ {
		row := r.Row(i)
		if pred(row) {
			out.Data = append(out.Data, row...)
		}
	}
	return out
}

// HashJoin joins l and r on l[lc] == r[rc], returning l's columns followed
// by r's. The smaller input builds the hash table, as any optimizer would
// arrange.
func (e *Engine) HashJoin(l, r *rel.Rel, lc, rc int) *rel.Rel {
	e.node()
	if l.Len() > r.Len() {
		// Build on the smaller side, then restore column order.
		swapped := e.HashJoin(r, l, rc, lc)
		cols := make([]int, 0, l.W+r.W)
		for i := 0; i < l.W; i++ {
			cols = append(cols, r.W+i)
		}
		for i := 0; i < r.W; i++ {
			cols = append(cols, i)
		}
		return swapped.Project(cols...)
	}
	c := e.Costs
	ht := rel.NewJoinIndex(l, lc)
	e.Store.ChargeCPU(int64(l.Len()) * c.HashBuild)
	out := rel.New(l.W + r.W)
	n := r.Len()
	e.Store.ChargeCPU(int64(n) * c.HashProbe)
	for j := 0; j < n; j++ {
		rrow := r.Row(j)
		for i := ht.First(rrow[rc]); i >= 0; i = ht.Next(i) {
			out.Data = append(out.Data, l.Row(i)...)
			out.Data = append(out.Data, rrow...)
		}
	}
	return out
}

// preparedJoin is the engine's rel.PreparedJoin: a hash table built once,
// probed per partition. The table is read-only after construction, so
// concurrent probes are safe; cost charges go through the store's lock.
type preparedJoin struct {
	e  *Engine
	l  *rel.Rel
	ht *rel.JoinIndex
}

// PrepareHashJoin builds the hash side of a repeated join once.
func (e *Engine) PrepareHashJoin(l *rel.Rel, lc int) rel.PreparedJoin {
	e.node()
	e.Store.ChargeCPU(int64(l.Len()) * e.Costs.HashBuild)
	return &preparedJoin{e: e, l: l, ht: rel.NewJoinIndex(l, lc)}
}

// Probe implements rel.PreparedJoin, charging one plan node per call — the
// per-table joins of the vertically-partitioned plans.
func (p *preparedJoin) Probe(r *rel.Rel, rc int) *rel.Rel {
	p.e.node()
	c := p.e.Costs
	out := rel.New(p.l.W + r.W)
	n := r.Len()
	p.e.Store.ChargeCPU(int64(n) * c.HashProbe)
	for j := 0; j < n; j++ {
		rrow := r.Row(j)
		for i := p.ht.First(rrow[rc]); i >= 0; i = p.ht.Next(i) {
			out.Data = append(out.Data, p.l.Row(i)...)
			out.Data = append(out.Data, rrow...)
		}
	}
	return out
}

// LeftJoin is the left outer hash join: every row of l survives, extended
// with the matching rows of r, or with nullVal in every r column when no
// match exists. Left input order is preserved (the probe iterates l), so
// ordering properties survive the operator.
func (e *Engine) LeftJoin(l, r *rel.Rel, lc, rc int, nullVal uint64) *rel.Rel {
	e.node()
	c := e.Costs
	ht := rel.NewJoinIndex(r, rc)
	e.Store.ChargeCPU(int64(r.Len()) * c.HashBuild)
	e.Store.ChargeCPU(int64(l.Len()) * c.HashProbe)
	out := rel.NewCap(l.W+r.W, l.Len())
	nulls := make([]uint64, r.W)
	for i := range nulls {
		nulls[i] = nullVal
	}
	n := l.Len()
	for i := 0; i < n; i++ {
		lrow := l.Row(i)
		j := ht.First(lrow[lc])
		if j < 0 {
			out.Data = append(out.Data, lrow...)
			out.Data = append(out.Data, nulls...)
		}
		for ; j >= 0; j = ht.Next(j) {
			out.Data = append(out.Data, lrow...)
			out.Data = append(out.Data, r.Row(j)...)
		}
	}
	return out
}

// FilterPred keeps rows whose col value satisfies pred — the engine-side
// half of the plan layer's value-resolved predicates (numeric ranges).
func (e *Engine) FilterPred(r *rel.Rel, col int, pred func(uint64) bool) *rel.Rel {
	return e.filter(r, func(row []uint64) bool { return pred(row[col]) })
}

// TopN sorts r under less and keeps the first limit rows (limit < 0 keeps
// all) — ORDER BY with LIMIT, as one tuple-at-a-time sort. The comparator
// comes from the plan layer (it resolves dictionary values); the engine
// charges one SortTuple per comparison of an n·log₂n sort plus the moves.
func (e *Engine) TopN(r *rel.Rel, limit int, less func(a, b []uint64) bool) *rel.Rel {
	e.node()
	n := r.Len()
	e.Store.ChargeCPU(sortCharge(n) * e.Costs.SortTuple)
	rows := make([][]uint64, n)
	for i := 0; i < n; i++ {
		rows[i] = r.Row(i)
	}
	sort.Slice(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
	if limit >= 0 && n > limit {
		rows = rows[:limit]
	}
	// Moving the surviving tuples is a scan-like pass of its own, mirroring
	// the column store's materialization charge.
	e.Store.ChargeCPU(int64(len(rows)) * e.Costs.ScanTuple)
	out := rel.NewCap(r.W, len(rows))
	for _, row := range rows {
		out.Data = append(out.Data, row...)
	}
	return out
}

// sortCharge approximates the comparison count of sorting n rows: n·⌈log₂n⌉.
func sortCharge(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	lg := int64(0)
	for m := n - 1; m > 0; m >>= 1 {
		lg++
	}
	return int64(n) * lg
}

// MergeJoin joins two inputs already sorted on their join columns. It is the
// "simple, fast (linear) merge join" the vertically-partitioned scheme gets
// on subject-subject joins of SO-clustered tables.
func (e *Engine) MergeJoin(l, r *rel.Rel, lc, rc int) *rel.Rel {
	e.node()
	c := e.Costs
	out := rel.New(l.W + r.W)
	i, j := 0, 0
	nl, nr := l.Len(), r.Len()
	e.Store.ChargeCPU(int64(nl+nr) * c.MergeTuple)
	for i < nl && j < nr {
		lv, rv := l.Row(i)[lc], r.Row(j)[rc]
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			// Emit the cross product of the equal runs.
			je := j
			for je < nr && r.Row(je)[rc] == lv {
				je++
			}
			for ; i < nl && l.Row(i)[lc] == lv; i++ {
				for k := j; k < je; k++ {
					out.Data = append(out.Data, l.Row(i)...)
					out.Data = append(out.Data, r.Row(k)...)
				}
			}
			j = je
		}
	}
	return out
}

// SemiJoinIn keeps rows of r whose col value appears in keys (a hash
// semijoin, used for the "properties" filtering joins of q2/q3/q4/q6).
func (e *Engine) SemiJoinIn(r *rel.Rel, col int, keys *rel.Rel, keyCol int) *rel.Rel {
	e.node()
	set := make(map[uint64]bool, keys.Len())
	for i := 0; i < keys.Len(); i++ {
		set[keys.Row(i)[keyCol]] = true
	}
	e.Store.ChargeCPU(int64(keys.Len()) * e.Costs.HashBuild)
	e.Store.ChargeCPU(int64(r.Len()) * e.Costs.HashProbe)
	out := rel.New(r.W)
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		if set[row[col]] {
			out.Data = append(out.Data, row...)
		}
	}
	return out
}

// GroupCount groups r by keyCols and appends a count column.
func (e *Engine) GroupCount(r *rel.Rel, keyCols ...int) *rel.Rel {
	return e.GroupCountPar(r, 1, keyCols...)
}

// GroupCountPar is GroupCount with the counting chunked over workers
// goroutines. The charges are identical — simulated times model the
// paper's single-threaded systems — and the chunk tallies merge by
// summation before the sort, so the output is byte-identical to the
// sequential operator.
func (e *Engine) GroupCountPar(r *rel.Rel, workers int, keyCols ...int) *rel.Rel {
	e.node()
	if len(keyCols) == 0 || len(keyCols) > 2 {
		panic(fmt.Sprintf("rowstore: GroupCount on %d keys", len(keyCols)))
	}
	e.Store.ChargeCPU(int64(r.Len()) * e.Costs.GroupTuple)
	counts := rel.CountGroups(r.Len(), workers, func(i int) [2]uint64 {
		row := r.Row(i)
		var k [2]uint64
		for j, c := range keyCols {
			k[j] = row[c]
		}
		return k
	})
	out := rel.New(len(keyCols) + 1)
	for k, cnt := range counts {
		vals := make([]uint64, 0, 3)
		vals = append(vals, k[:len(keyCols)]...)
		vals = append(vals, cnt)
		out.Append(vals...)
	}
	out.Sort() // deterministic output order
	return out
}

// HavingGT keeps rows with row[col] > min — the HAVING count(*) > 1 clause.
func (e *Engine) HavingGT(r *rel.Rel, col int, min uint64) *rel.Rel {
	return e.filter(r, func(row []uint64) bool { return row[col] > min })
}

// Union concatenates two same-width relations (bag semantics; apply
// Distinct for set semantics, as SQL UNION does).
func (e *Engine) Union(a, b *rel.Rel) *rel.Rel {
	e.node()
	if a.W != b.W {
		panic(fmt.Sprintf("rowstore: union of widths %d and %d", a.W, b.W))
	}
	e.Store.ChargeCPU(int64(a.Len()+b.Len()) * e.Costs.UnionTuple)
	out := rel.NewCap(a.W, a.Len()+b.Len())
	out.Data = append(out.Data, a.Data...)
	out.Data = append(out.Data, b.Data...)
	return out
}

// UnionAll concatenates any number of same-width relations, charging one
// plan node per input — the explicit per-table unions of the vertically-
// partitioned plans ("each query contains more than two hundred unions and
// joins"). Each tuple is moved once, unlike a left fold of binary unions.
func (e *Engine) UnionAll(w int, parts []*rel.Rel) *rel.Rel {
	return e.UnionAllPar(w, parts, 1)
}

// UnionAllPar is UnionAll with the data movement fanned over a pool of
// workers. The charges are identical — simulated times model the paper's
// single-threaded systems — and each part copies to a precomputed offset,
// so the output is byte-identical to the sequential merge.
func (e *Engine) UnionAllPar(w int, parts []*rel.Rel, workers int) *rel.Rel {
	var total int64
	for _, p := range parts {
		e.node()
		if p.W != w {
			panic(fmt.Sprintf("rowstore: union-all of widths %d and %d", w, p.W))
		}
		total += int64(p.Len())
	}
	e.Store.ChargeCPU(total * e.Costs.UnionTuple)
	return rel.ConcatParallel(w, parts, workers)
}

// Distinct removes duplicate rows.
func (e *Engine) Distinct(r *rel.Rel) *rel.Rel {
	e.node()
	e.Store.ChargeCPU(int64(r.Len()) * e.Costs.DistinctTuple)
	seen := make(map[string]bool, r.Len())
	out := rel.New(r.W)
	buf := make([]byte, 0, r.W*8)
	n := r.Len()
	for i := 0; i < n; i++ {
		row := r.Row(i)
		buf = buf[:0]
		for _, v := range row {
			buf = append(buf,
				byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
		k := string(buf)
		if !seen[k] {
			seen[k] = true
			out.Data = append(out.Data, row...)
		}
	}
	return out
}
