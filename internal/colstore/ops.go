package colstore

import (
	"blackswan/internal/rel"
)

// SelectRange returns positions of the sorted-column run [v's lower bound,
// upper bound), without materializing values — used to locate clustering
// ranges.
func (e *Engine) SelectRange(c *Column, v uint64) (int, int) {
	e.node()
	e.Store.ChargeCPU(e.Costs.BinarySearch)
	return c.bounds(v)
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
