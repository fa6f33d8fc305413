package colstore

import (
	"blackswan/internal/rel"
)

// Relational adapts the vector engine to the row-shaped charge vocabulary
// the core plan executor needs (core.PhysicalOps, priced in stream.go). Each
// operator class is charged as its decomposition into the engine's vector
// primitives (key extraction is a positional fetch, joins produce position
// lists that are then materialized), so plan-driven execution charges the
// same per-value cost model as hand-written column-at-a-time query plans.
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
