package core

import (
	"testing"

	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rowstore"
	"blackswan/internal/simio"
)

// TestRatesPriceTheClock holds the model to the clock where the row counts
// are known: over fixed accesses, the simulated CPU a single hash join or
// a single distinct charges beyond its inputs' own scans is exactly what
// the engine's rate table prices for those counts, in every configuration.
func TestRatesPriceTheClock(t *testing.T) {
	fx := newCrafted(t)
	// Machine A's CPU scale is 1, so the store's totals are baseline ns.
	store := func() *simio.Store { return simio.NewStore(simio.Config{Machine: simio.MachineA()}) }
	row, err := LoadRowTriple(rowstore.NewEngine(store()), fx.g, fx.cat, rdf.PSO, rdf.AllOrders())
	if err != nil {
		t.Fatal(err)
	}
	col, err := LoadColTriple(colstore.NewEngine(store()), fx.g, fx.cat, rdf.PSO)
	if err != nil {
		t.Fatal(err)
	}
	id := func(k string) TermRef { return C(rdf.ID(fx.ids[k])) }
	typ := &Access{Pattern: Pat(V("s"), id("type"), V("t"))}    // s1..s4: 4 rows
	title := &Access{Pattern: Pat(V("s"), id("title"), V("x"))} // s1 A, s2 A, s2 B: 3 rows
	price := func(r *simio.Rates, op simio.Op, n, w int) int64 { return r[op].Price(n, w) }

	for _, c := range []struct {
		name   string
		root   Node
		inputs []Node
		want   func(r *simio.Rates) int64
	}{
		// The triple-stores' scans are unordered, so the join hashes: the
		// smaller R (3 rows) builds, the drained L (4 rows) probes, and the
		// 3 joined rows are assembled at the pre-projection width 2+2.
		{"hash join", &Join{L: typ, R: title}, []Node{typ, title}, func(r *simio.Rates) int64 {
			return price(r, simio.OpNode, 1, 1) + price(r, simio.OpHashBuild, 3, 2) +
				price(r, simio.OpHashProbe, 4, 2) + price(r, simio.OpJoinEmit, 3, 4)
		}},
		{"distinct", &Distinct{In: typ}, []Node{typ}, func(r *simio.Rates) int64 {
			return price(r, simio.OpNode, 1, 1) + price(r, simio.OpDistinct, 4, 2)
		}},
	} {
		for name, src := range map[string]PhysicalSource{"rowtriple": row, "coltriple": col} {
			cpu := func(root Node, opt ExecOptions) int64 {
				c0, _, _ := src.Ops().Store.Charges()
				if _, _, _, err := ExecutePlan(src, root, opt); err != nil {
					t.Fatal(err)
				}
				c1, _, _ := src.Ops().Store.Charges()
				return c1 - c0
			}
			want := c.want(src.Ops().Rates)
			for _, opt := range configs {
				got := cpu(c.root, opt)
				for _, in := range c.inputs {
					got -= cpu(in, opt)
				}
				if got != want {
					t.Errorf("%s on %s %+v: charged %d ns beyond its scans, the rate table prices %d", c.name, name, opt, got, want)
				}
			}
		}
	}
}
