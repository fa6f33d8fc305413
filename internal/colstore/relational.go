package colstore

import (
	"fmt"
	"sort"

	"blackswan/internal/rel"
)

// Relational adapts the vector engine to the row-shaped relational operator
// vocabulary the core plan executor lowers onto. Each operator decomposes
// into the engine's vector primitives (key extraction is a positional
// fetch, joins produce position lists that are then materialized), so
// plan-driven execution charges the same per-value cost model as the
// hand-written column-at-a-time query plans it replaced.
type Relational struct {
	E *Engine
}

// Charges implements the plan executor's charge-meter contract (see
// core.ChargeMeter): a locked snapshot of the store's simulated CPU and
// I/O nanoseconds plus physical bytes read, for per-operator profiling.
func (r Relational) Charges() (cpuNs, ioNs, bytesRead int64) {
	return r.E.Store.Charges()
}

// key extracts a column as a join/grouping key vector, charging one fetch
// per value.
func (r Relational) key(x *rel.Rel, c int) []uint64 {
	r.E.Store.ChargeCPU(int64(x.Len()) * r.E.Costs.FetchValue)
	return x.Col(c)
}

// materialize gathers matching row pairs into a combined relation.
func (r Relational) materialize(l, rr *rel.Rel, lp, rp []int32) *rel.Rel {
	w := l.W + rr.W
	out := rel.NewCap(w, len(lp))
	r.E.Store.ChargeCPU(int64(len(lp)) * int64(w) * r.E.Costs.FetchValue)
	for i := range lp {
		out.Data = append(out.Data, l.Row(int(lp[i]))...)
		out.Data = append(out.Data, rr.Row(int(rp[i]))...)
	}
	return out
}

// HashJoin joins l and r on l[lc] == r[rc], returning l's columns followed
// by r's.
func (r Relational) HashJoin(l, rr *rel.Rel, lc, rc int) *rel.Rel {
	lp, rp := r.E.HashJoin(r.key(l, lc), r.key(rr, rc))
	return r.materialize(l, rr, lp, rp)
}

// preparedJoin is the adapter's rel.PreparedJoin: key vector hashed once,
// probed per partition. Read-only after construction, so concurrent probes
// are safe; charges go through the store's lock.
type preparedJoin struct {
	r  Relational
	l  *rel.Rel
	ht *rel.JoinIndex
}

// PrepareHashJoin builds the hash side of a repeated join once.
func (r Relational) PrepareHashJoin(l *rel.Rel, lc int) rel.PreparedJoin {
	r.E.node()
	// Charged as the key extraction it replaces, then the build.
	r.E.Store.ChargeCPU(int64(l.Len()) * r.E.Costs.FetchValue)
	r.E.Store.ChargeCPU(int64(l.Len()) * r.E.Costs.HashBuild)
	return &preparedJoin{r: r, l: l, ht: rel.NewJoinIndex(l, lc)}
}

// Probe implements rel.PreparedJoin, charging one operator dispatch per
// call — the per-table joins of the vertically-partitioned plans.
func (p *preparedJoin) Probe(rr *rel.Rel, rc int) *rel.Rel {
	p.r.E.node()
	rk := p.r.key(rr, rc)
	p.r.E.Store.ChargeCPU(int64(len(rk)) * p.r.E.Costs.HashProbe)
	var lp, rp []int32
	for j, v := range rk {
		for i := p.ht.First(v); i >= 0; i = p.ht.Next(i) {
			lp = append(lp, int32(i))
			rp = append(rp, int32(j))
		}
	}
	return p.r.materialize(p.l, rr, lp, rp)
}

// MergeJoin joins two inputs already sorted on their join columns.
func (r Relational) MergeJoin(l, rr *rel.Rel, lc, rc int) *rel.Rel {
	lp, rp := r.E.MergeJoin(r.key(l, lc), r.key(rr, rc))
	return r.materialize(l, rr, lp, rp)
}

// LeftJoin is the left outer hash join decomposed into vector primitives:
// hash the right key vector, probe with the left one, and materialize with
// rp = -1 marking a null-extended row. Left input order is preserved.
func (r Relational) LeftJoin(l, rr *rel.Rel, lc, rc int, nullVal uint64) *rel.Rel {
	r.E.node()
	ht := rel.NewJoinIndex(rr, rc)
	r.E.Store.ChargeCPU(int64(rr.Len()) * r.E.Costs.FetchValue)
	r.E.Store.ChargeCPU(int64(rr.Len()) * r.E.Costs.HashBuild)
	lk := r.key(l, lc)
	r.E.Store.ChargeCPU(int64(len(lk)) * r.E.Costs.HashProbe)
	var lp, rp []int32
	for i, v := range lk {
		j := ht.First(v)
		if j < 0 {
			lp = append(lp, int32(i))
			rp = append(rp, -1)
		}
		for ; j >= 0; j = ht.Next(j) {
			lp = append(lp, int32(i))
			rp = append(rp, int32(j))
		}
	}
	// Outer materialization: a negative right position emits nulls.
	w := l.W + rr.W
	out := rel.NewCap(w, len(lp))
	r.E.Store.ChargeCPU(int64(len(lp)) * int64(w) * r.E.Costs.FetchValue)
	nulls := make([]uint64, rr.W)
	for i := range nulls {
		nulls[i] = nullVal
	}
	for i := range lp {
		out.Data = append(out.Data, l.Row(int(lp[i]))...)
		if rp[i] < 0 {
			out.Data = append(out.Data, nulls...)
		} else {
			out.Data = append(out.Data, rr.Row(int(rp[i]))...)
		}
	}
	return out
}

// FilterPred keeps rows whose col value satisfies pred — the vector-side
// half of the plan layer's value-resolved predicates (numeric ranges).
func (r Relational) FilterPred(x *rel.Rel, col int, pred func(uint64) bool) *rel.Rel {
	return r.filter(x, func(row []uint64) bool { return pred(row[col]) })
}

// TopN sorts x under less (a total order from the plan layer) and keeps the
// first limit rows; limit < 0 keeps all. Charged as an n·⌈log₂n⌉-comparison
// sort over the key columns plus the output materialization.
func (r Relational) TopN(x *rel.Rel, limit int, less func(a, b []uint64) bool) *rel.Rel {
	r.E.node()
	n := x.Len()
	r.E.Store.ChargeCPU(sortCharge(n) * r.E.Costs.SortValue)
	rows := make([][]uint64, n)
	for i := 0; i < n; i++ {
		rows[i] = x.Row(i)
	}
	sort.Slice(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
	if limit >= 0 && n > limit {
		rows = rows[:limit]
	}
	out := rel.NewCap(x.W, len(rows))
	r.E.Store.ChargeCPU(int64(len(rows)) * int64(x.W) * r.E.Costs.FetchValue)
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

func (r Relational) filter(x *rel.Rel, pred func(row []uint64) bool) *rel.Rel {
	r.E.node()
	r.E.Store.ChargeCPU(int64(x.Len()) * r.E.Costs.SelectValue)
	out := rel.New(x.W)
	n := x.Len()
	for i := 0; i < n; i++ {
		row := x.Row(i)
		if pred(row) {
			out.Data = append(out.Data, row...)
		}
	}
	return out
}

// FilterEq keeps rows with row[col] == v.
func (r Relational) FilterEq(x *rel.Rel, col int, v uint64) *rel.Rel {
	return r.filter(x, func(row []uint64) bool { return row[col] == v })
}

// FilterNe keeps rows with row[col] != v.
func (r Relational) FilterNe(x *rel.Rel, col int, v uint64) *rel.Rel {
	return r.filter(x, func(row []uint64) bool { return row[col] != v })
}

// FilterIn keeps rows whose col value is in set.
func (r Relational) FilterIn(x *rel.Rel, col int, set map[uint64]bool) *rel.Rel {
	return r.filter(x, func(row []uint64) bool { return set[row[col]] })
}

// FilterEqCol keeps rows whose columns a and b hold equal values — the
// residual equality predicate of cyclic basic graph patterns.
func (r Relational) FilterEqCol(x *rel.Rel, a, b int) *rel.Rel {
	return r.filter(x, func(row []uint64) bool { return row[a] == row[b] })
}

// GroupCount groups by keyCols and appends a count column.
func (r Relational) GroupCount(x *rel.Rel, keyCols ...int) *rel.Rel {
	return r.GroupCountPar(x, 1, keyCols...)
}

// GroupCountPar is GroupCount with the counting chunked over workers;
// charges and output are identical, only host time changes.
func (r Relational) GroupCountPar(x *rel.Rel, workers int, keyCols ...int) *rel.Rel {
	switch len(keyCols) {
	case 1:
		return r.E.GroupCountPar(workers, r.key(x, keyCols[0]))
	case 2:
		return r.E.GroupCountPar(workers, r.key(x, keyCols[0]), r.key(x, keyCols[1]))
	default:
		panic(fmt.Sprintf("colstore: GroupCount on %d keys", len(keyCols)))
	}
}

// HavingGT keeps rows with row[col] > min.
func (r Relational) HavingGT(x *rel.Rel, col int, min uint64) *rel.Rel {
	return r.E.HavingGT(x, col, min)
}

// Union concatenates two same-width relations (bag semantics).
func (r Relational) Union(a, b *rel.Rel) *rel.Rel {
	return r.UnionAll(a.W, []*rel.Rel{a, b})
}

// UnionAll concatenates same-width relations, charging one operator
// dispatch per input — the per-table unions of the vertically-partitioned
// plans, each tuple moved once.
func (r Relational) UnionAll(w int, parts []*rel.Rel) *rel.Rel {
	return r.UnionAllPar(w, parts, 1)
}

// UnionAllPar is UnionAll with the data movement fanned over a pool of
// workers. The charges are identical — simulated times model the paper's
// single-threaded systems — and each part copies to a precomputed offset,
// so the output is byte-identical to the sequential merge.
func (r Relational) UnionAllPar(w int, parts []*rel.Rel, workers int) *rel.Rel {
	var total int64
	for _, p := range parts {
		r.E.node()
		if p.W != w {
			panic(fmt.Sprintf("colstore: union-all of widths %d and %d", w, p.W))
		}
		total += int64(p.Len())
	}
	r.E.Store.ChargeCPU(total * int64(w) * r.E.Costs.UnionValue)
	return rel.ConcatParallel(w, parts, workers)
}

// Distinct removes duplicate rows, keeping first occurrences in order.
func (r Relational) Distinct(x *rel.Rel) *rel.Rel {
	if x.W <= 3 {
		return r.E.DistinctRows(x)
	}
	r.E.node()
	r.E.Store.ChargeCPU(int64(x.Len()) * int64(x.W) * r.E.Costs.DistinctValue)
	seen := make(map[string]bool, x.Len())
	out := rel.New(x.W)
	buf := make([]byte, 0, x.W*8)
	n := x.Len()
	for i := 0; i < n; i++ {
		row := x.Row(i)
		buf = buf[:0]
		for _, v := range row {
			buf = append(buf,
				byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
		if k := string(buf); !seen[k] {
			seen[k] = true
			out.Data = append(out.Data, row...)
		}
	}
	return out
}
