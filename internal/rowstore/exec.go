package rowstore

import (
	"blackswan/internal/btree"
	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

// Rates is the row store's price list in baseline nanoseconds per tuple,
// flat in width. Row stores interpret tuple-at-a-time plans, so these rates
// are roughly an order of magnitude above the column store's per-value
// ones — the mechanical source of the paper's row-vs-column performance
// gap. The engine's own code reads the same list: a scan emits each tuple
// at OpEmit and tests a residual binding at OpFilter, and the standalone
// hash join builds and probes at OpHashBuild and OpHashProbe.
var Rates = simio.Rates{
	simio.OpNode:      {Row: 25_000}, // open one plan node (optimizer + executor setup)
	simio.OpFilter:    {Row: 25},
	simio.OpHashBuild: {Row: 140},
	simio.OpHashProbe: {Row: 110},
	simio.OpMerge:     {Row: 60},
	simio.OpUnion:     {Row: 100},
	simio.OpDistinct:  {Row: 110},
	// The interesting-properties restriction is a hash semijoin probe.
	simio.OpRestrict: {Row: 110},
	simio.OpGroup:    {Row: 130},
	// Free: a row store hands the already-assembled tuple pair upward, and
	// the per-tuple work was charged on the probe.
	simio.OpJoinEmit: {},
	simio.OpEmit:     {Row: 90},
	simio.OpSort:     {Row: 70},
}

// node charges the fixed cost of opening one plan node. Plans over the
// vertically-partitioned schema contain hundreds of nodes ("each query
// contains more than two hundred unions and joins"), so this charge is what
// stresses the optimizer in the reproduction, as it does in the paper.
func (e *Engine) node() { e.Store.ChargeCPU(Rates[simio.OpNode].Row) }

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
	ht := rel.NewJoinIndex(l, lc)
	e.Store.ChargeCPU(Rates[simio.OpHashBuild].Price(l.Len(), l.W))
	out := rel.New(l.W + r.W)
	n := r.Len()
	e.Store.ChargeCPU(Rates[simio.OpHashProbe].Price(n, r.W))
	for j := 0; j < n; j++ {
		rrow := r.Row(j)
		for i := ht.First(rrow[rc]); i >= 0; i = ht.Next(i) {
			out.Data = append(out.Data, l.Row(i)...)
			out.Data = append(out.Data, rrow...)
		}
	}
	return out
}
