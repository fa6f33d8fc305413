package rowstore

import (
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
