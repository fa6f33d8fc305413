package colstore

import (
	"blackswan/internal/rel"
)

// SelectRange returns positions of the sorted-column run [v's lower bound,
// upper bound), without materializing values — used to locate clustering
// ranges.
func (e *Engine) SelectRange(c *Column, v uint64) (int, int) {
	e.ChargeNode()
	e.Store.ChargeCPU(binarySearch)
	return c.bounds(v)
}

// HashJoin joins two key vectors, returning matching position pairs.
// The smaller side builds.
func (e *Engine) HashJoin(l, r []uint64) (lpos, rpos []int32) {
	e.ChargeNode()
	if len(l) > len(r) {
		rp, lp := e.HashJoin(r, l)
		return lp, rp
	}
	ht := rel.NewJoinIndex(&rel.Rel{W: 1, Data: l}, 0)
	e.Store.ChargeCPU(int64(len(l)) * hashBuild)
	e.Store.ChargeCPU(int64(len(r)) * hashProbe)
	for j, v := range r {
		for i := ht.First(v); i >= 0; i = ht.Next(i) {
			lpos = append(lpos, int32(i))
			rpos = append(rpos, int32(j))
		}
	}
	return lpos, rpos
}

// HashJoinRel is HashJoin over row-shaped relations, joining l and r on
// l[lc] == r[rc] and returning l's columns followed by r's: key extraction
// is a positional fetch, and the matching position lists are then
// materialized, each value one more fetch. The executor does not call it —
// the performance ledger's physical-layer probe times it.
func (e *Engine) HashJoinRel(l, r *rel.Rel, lc, rc int) *rel.Rel {
	e.Store.ChargeCPU(int64(l.Len()+r.Len()) * fetchValue)
	lp, rp := e.HashJoin(l.Col(lc), r.Col(rc))
	w := l.W + r.W
	out := rel.NewCap(w, len(lp))
	e.Store.ChargeCPU(int64(len(lp)) * int64(w) * fetchValue)
	for i := range lp {
		out.Data = append(out.Data, l.Row(int(lp[i]))...)
		out.Data = append(out.Data, r.Row(int(rp[i]))...)
	}
	return out
}
