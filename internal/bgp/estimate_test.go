package bgp_test

import (
	"math"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
)

// TestEstimateCoversEveryPlanNode is the estimate-coverage audit: every
// entry of the plan's node table — across the paper plans and generated
// queries forcing the LeftJoin, FilterRange and TopN paths — must carry an
// estimate. A missing one would make EXPLAIN ANALYZE and the workload
// registry's q-error aggregation silently skip the operator, so estimation
// drift there would be invisible. A compiled plan's table is the one
// bgp.Estimate computes for it afresh: the compiler prices, and reports, the
// same figures it ordered the joins on.
func TestEstimateCoversEveryPlanNode(t *testing.T) {
	f := loadFixture(t)

	type job struct {
		name  string
		nodes []core.NodeInfo
	}
	var jobs []job
	for _, q := range core.BenchmarkQueries() {
		p, err := core.PlanFor(q, f.cat.Consts)
		if err != nil {
			t.Fatalf("paper plan %v: %v", q, err)
		}
		priced, _, err := bgp.Estimate(p.Root, f.est)
		if err != nil {
			t.Fatalf("paper plan %v: %v", q, err)
		}
		jobs = append(jobs, job{name: q.String(), nodes: priced.Nodes()})
	}

	// Generated queries forcing each construct the audit names: OPTIONAL
	// lowers to LeftJoin, numeric FILTER to FilterRange, ORDER BY [LIMIT]
	// to TopN. A handful per construct suffices — coverage is structural.
	force := []struct {
		name string
		cfg  bgp.GenConfig
	}{
		{"optional", bgp.GenConfig{Seed: 11, OptionalProb: 1}},
		{"range", bgp.GenConfig{Seed: 12, RangeProb: 1, OptionalProb: -1}},
		{"topn", bgp.GenConfig{Seed: 13, OrderProb: 1, LimitProb: 1}},
		{"mixed", bgp.GenConfig{Seed: 14, OptionalProb: 0.5, RangeProb: 0.5, OrderProb: 0.5}},
	}
	for _, fc := range force {
		gen := bgp.NewGenerator(f.ds.Graph, fc.cfg)
		for i := 0; i < 24; i++ {
			q, _ := gen.Query(i)
			compiled, err := bgp.Compile(q, f.ds.Graph.Dict, f.est)
			if err != nil {
				t.Fatalf("%s query %d (%s): %v", fc.name, i, q.Text(), err)
			}
			name := fc.name + ": " + q.Text()
			fresh, cost, err := bgp.Estimate(compiled.Root, f.est)
			if err != nil {
				t.Fatal(err)
			}
			if cost != compiled.Cost {
				t.Errorf("%s: compiled cost %v, a fresh estimate prices the plan at %v", name, compiled.Cost, cost)
			}
			nodes, again := compiled.Nodes(), fresh.Nodes()
			if len(nodes) != len(again) {
				t.Fatalf("%s: compiled table has %d nodes, a fresh one %d", name, len(nodes), len(again))
			}
			for i, in := range nodes {
				if in.Node != again[i].Node || in.EstRows != again[i].EstRows {
					t.Errorf("%s: node %d %q compiled estimate %v, a fresh one %v",
						name, i, core.NodeLabel(in.Node, nil), in.EstRows, again[i].EstRows)
				}
			}
			jobs = append(jobs, job{name: name, nodes: nodes})
		}
	}

	sawLeftJoin, sawRange, sawTopN := false, false, false
	for _, j := range jobs {
		for _, in := range j.nodes {
			switch in.Node.(type) {
			case *core.LeftJoin:
				sawLeftJoin = true
			case *core.FilterRange:
				sawRange = true
			case *core.TopN:
				sawTopN = true
			}
			if in.EstRows < 0 {
				t.Errorf("%s: node %q has no cardinality estimate (%g)", j.name, core.NodeLabel(in.Node, nil), in.EstRows)
			}
		}
	}
	// The corpus must actually have exercised the paths the audit names.
	if !sawLeftJoin || !sawRange || !sawTopN {
		t.Fatalf("corpus missed a construct: leftjoin=%v range=%v topn=%v", sawLeftJoin, sawRange, sawTopN)
	}
}

// TestRangeEstimateUsesAccessStatistics pins the one estimate on the
// numeric range filters of the golden queries, required and OPTIONAL: each
// FilterRange's estimate is its input's times the RangeSelectivity of the
// access under the filter chain — the per-property figure the join order
// is chosen on, and so the figure EXPLAIN ANALYZE reports.
func TestRangeEstimateUsesAccessStatistics(t *testing.T) {
	f := loadFixture(t)
	ranges := 0
	for _, tc := range goldenQueries {
		compiled, err := bgp.CompileText(tc.text, f.ds.Graph.Dict, f.est)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		nodes := compiled.Nodes()
		est := map[core.Node]float64{}
		for _, in := range nodes {
			est[in.Node] = in.EstRows
		}
		for _, in := range nodes {
			fr, ok := in.Node.(*core.FilterRange)
			if !ok {
				continue
			}
			ranges++
			below := fr.In
			for {
				if in, ok := below.(*core.FilterRange); ok {
					below = in.In
					continue
				}
				if in, ok := below.(*core.FilterNe); ok {
					below = in.In
					continue
				}
				break
			}
			acc, ok := below.(*core.Access)
			if !ok {
				t.Fatalf("%s: range filter on ?%s sits on %q, not on a pattern", tc.name, fr.Col, core.NodeLabel(below, nil))
			}
			sel := f.est.RangeSelectivity(acc.Pattern, fr.Col, fr.Lo, fr.Hi)
			want := math.Max(est[fr.In]*sel, 0.01)
			if got := in.EstRows; got != want {
				t.Errorf("%s: range filter on ?%s estimated %.4g rows, want %.4g (input %.4g × selectivity %.4g)",
					tc.name, fr.Col, got, want, est[fr.In], sel)
			}
		}
	}
	// range_pushed_to_leaf stacks two filters, mixed_constructs puts one
	// inside an OPTIONAL.
	if ranges != 3 {
		t.Fatalf("golden queries hold %d range filters, want 3", ranges)
	}
}
