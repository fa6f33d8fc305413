package colstore

import (
	"blackswan/internal/rel"
)

// SelectEq returns the positions where c equals v, as a sorted position
// list. On a sorted column it binary-searches and touches only the
// qualifying byte range; otherwise it scans the whole column.
func (e *Engine) SelectEq(c *Column, v uint64) []int32 {
	e.node()
	if c.Sorted {
		lo, hi := c.bounds(v)
		e.Store.ChargeCPU(e.Costs.BinarySearch)
		c.touch(lo, hi)
		out := make([]int32, 0, hi-lo)
		for p := lo; p < hi; p++ {
			out = append(out, int32(p))
		}
		e.Store.ChargeCPU(int64(hi-lo) * e.Costs.SelectValue)
		return out
	}
	c.touchAll()
	e.Store.ChargeCPU(int64(len(c.vals)) * e.Costs.SelectValue)
	var out []int32
	for i, x := range c.vals {
		if x == v {
			out = append(out, int32(i))
		}
	}
	return out
}

// SelectRange returns positions of the sorted-column run [v's lower bound,
// upper bound), without materializing values — used to locate clustering
// ranges.
func (e *Engine) SelectRange(c *Column, v uint64) (int, int) {
	e.node()
	e.Store.ChargeCPU(e.Costs.BinarySearch)
	return c.bounds(v)
}

// SelectNe returns the positions where c differs from v (full-column scan;
// inequality cannot exploit sortedness the way equality can).
func (e *Engine) SelectNe(c *Column, v uint64) []int32 {
	e.node()
	c.touchAll()
	e.Store.ChargeCPU(int64(len(c.vals)) * e.Costs.SelectValue)
	var out []int32
	for i, x := range c.vals {
		if x != v {
			out = append(out, int32(i))
		}
	}
	return out
}

// FilterVecNe keeps the values of a materialized vector that differ from v.
func (e *Engine) FilterVecNe(vals []uint64, v uint64) []uint64 {
	e.node()
	e.Store.ChargeCPU(int64(len(vals)) * e.Costs.SelectValue)
	out := make([]uint64, 0, len(vals))
	for _, x := range vals {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// SelectEqAt refines a candidate list: positions in cand where c equals v.
func (e *Engine) SelectEqAt(c *Column, v uint64, cand []int32) []int32 {
	return e.selectAt(c, cand, func(x uint64) bool { return x == v })
}

// SelectNeAt keeps candidate positions where c differs from v.
func (e *Engine) SelectNeAt(c *Column, v uint64, cand []int32) []int32 {
	return e.selectAt(c, cand, func(x uint64) bool { return x != v })
}

// SelectInAt keeps candidate positions whose value is in set.
func (e *Engine) SelectInAt(c *Column, set map[uint64]bool, cand []int32) []int32 {
	return e.selectAt(c, cand, func(x uint64) bool { return set[x] })
}

func (e *Engine) selectAt(c *Column, cand []int32, pred func(uint64) bool) []int32 {
	e.node()
	if len(cand) == 0 {
		return nil
	}
	c.touch(int(cand[0]), int(cand[len(cand)-1])+1)
	e.Store.ChargeCPU(int64(len(cand)) * e.Costs.SelectValue)
	var out []int32
	for _, p := range cand {
		c.check(p)
		if pred(c.vals[p]) {
			out = append(out, p)
		}
	}
	return out
}

// Fetch materializes the values of c at the given (sorted) positions.
func (e *Engine) Fetch(c *Column, pos []int32) []uint64 {
	e.node()
	if len(pos) == 0 {
		return nil
	}
	c.touch(int(pos[0]), int(pos[len(pos)-1])+1)
	e.Store.ChargeCPU(int64(len(pos)) * e.Costs.FetchValue)
	out := make([]uint64, len(pos))
	for i, p := range pos {
		c.check(p)
		out[i] = c.vals[p]
	}
	return out
}

// FetchAll materializes the whole column.
func (e *Engine) FetchAll(c *Column) []uint64 {
	e.node()
	c.touchAll()
	e.Store.ChargeCPU(int64(len(c.vals)) * e.Costs.FetchValue)
	out := make([]uint64, len(c.vals))
	copy(out, c.vals)
	return out
}

// HashJoin joins two key vectors, returning matching position pairs.
// The smaller side builds.
func (e *Engine) HashJoin(l, r []uint64) (lpos, rpos []int32) {
	e.node()
	if len(l) > len(r) {
		rp, lp := e.HashJoin(r, l)
		return lp, rp
	}
	ht := rel.NewJoinIndex(&rel.Rel{W: 1, Data: l}, 0)
	e.Store.ChargeCPU(int64(len(l)) * e.Costs.HashBuild)
	e.Store.ChargeCPU(int64(len(r)) * e.Costs.HashProbe)
	for j, v := range r {
		for i := ht.First(v); i >= 0; i = ht.Next(i) {
			lpos = append(lpos, int32(i))
			rpos = append(rpos, int32(j))
		}
	}
	return lpos, rpos
}

// MergeJoin joins two ascending key vectors with a linear merge — the fast
// join vertically-partitioned tables get on subject-subject joins.
func (e *Engine) MergeJoin(l, r []uint64) (lpos, rpos []int32) {
	e.node()
	e.Store.ChargeCPU(int64(len(l)+len(r)) * e.Costs.SelectValue)
	i, j := 0, 0
	for i < len(l) && j < len(r) {
		switch {
		case l[i] < r[j]:
			i++
		case l[i] > r[j]:
			j++
		default:
			v := l[i]
			je := j
			for je < len(r) && r[je] == v {
				je++
			}
			for ; i < len(l) && l[i] == v; i++ {
				for k := j; k < je; k++ {
					lpos = append(lpos, int32(i))
					rpos = append(rpos, int32(k))
				}
			}
			j = je
		}
	}
	return lpos, rpos
}

// SemiJoin returns the positions in keys whose value appears in probe.
func (e *Engine) SemiJoin(keys []uint64, probe map[uint64]bool) []int32 {
	e.node()
	e.Store.ChargeCPU(int64(len(keys)) * e.Costs.HashProbe)
	var out []int32
	for i, v := range keys {
		if probe[v] {
			out = append(out, int32(i))
		}
	}
	return out
}

// BuildSet hashes a vector into a set (the build side of semijoins).
func (e *Engine) BuildSet(vals []uint64) map[uint64]bool {
	e.node()
	e.Store.ChargeCPU(int64(len(vals)) * e.Costs.HashBuild)
	set := make(map[uint64]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	return set
}

// GroupCount groups parallel key vectors (1 or 2) and returns keys+count
// rows, sorted for determinism.
func (e *Engine) GroupCount(keys ...[]uint64) *rel.Rel {
	e.node()
	if len(keys) == 0 || len(keys) > 2 {
		panic("colstore: GroupCount supports 1 or 2 key vectors")
	}
	n := len(keys[0])
	if len(keys[len(keys)-1]) != n {
		panic("colstore: GroupCount key vectors differ in length")
	}
	e.Store.ChargeCPU(int64(n) * int64(len(keys)) * e.Costs.GroupValue)
	counts := make(map[[2]uint64]uint64, 64)
	for i := 0; i < n; i++ {
		var k [2]uint64
		for j, v := range keys {
			k[j] = v[i]
		}
		counts[k]++
	}
	out := rel.New(len(keys) + 1)
	for k, cnt := range counts {
		out.Data = append(append(out.Data, k[:len(keys)]...), cnt)
	}
	out.Sort()
	return out
}

// Union concatenates value vectors, charging per moved value.
func (e *Engine) Union(vecs ...[]uint64) []uint64 {
	e.node()
	var total int
	for _, v := range vecs {
		total += len(v)
	}
	e.Store.ChargeCPU(int64(total) * e.Costs.UnionValue)
	out := make([]uint64, 0, total)
	for _, v := range vecs {
		out = append(out, v...)
	}
	return out
}

// Distinct removes duplicates from a vector (SQL UNION's set semantics,
// "the union operator must also perform a duplicate elimination").
func (e *Engine) Distinct(vals []uint64) []uint64 {
	e.node()
	e.Store.ChargeCPU(int64(len(vals)) * e.Costs.DistinctValue)
	seen := make(map[uint64]bool, len(vals))
	out := make([]uint64, 0, len(vals))
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// DistinctRows removes duplicate rows from a relation of width ≤ 3.
func (e *Engine) DistinctRows(r *rel.Rel) *rel.Rel {
	e.node()
	if r.W > 3 {
		panic("colstore: DistinctRows supports width <= 3")
	}
	e.Store.ChargeCPU(int64(r.Len()) * e.Costs.DistinctValue)
	type key [3]uint64
	seen := make(map[key]bool, r.Len())
	out := rel.New(r.W)
	n := r.Len()
	for i := 0; i < n; i++ {
		row := r.Row(i)
		var k key
		copy(k[:], row)
		if !seen[k] {
			seen[k] = true
			out.Data = append(out.Data, row...)
		}
	}
	return out
}

// Gather applies a position list to a position list: out[i] = base[idx[i]].
// It is the positional composition at the heart of late materialization.
func (e *Engine) Gather(base, idx []int32) []int32 {
	e.node()
	e.Store.ChargeCPU(int64(len(idx)) * e.Costs.FetchValue)
	out := make([]int32, len(idx))
	for i, p := range idx {
		out[i] = base[p]
	}
	return out
}

// GatherVals applies a position list to a value vector.
func (e *Engine) GatherVals(base []uint64, idx []int32) []uint64 {
	e.node()
	e.Store.ChargeCPU(int64(len(idx)) * e.Costs.FetchValue)
	out := make([]uint64, len(idx))
	for i, p := range idx {
		out[i] = base[p]
	}
	return out
}
