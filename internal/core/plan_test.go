package core

import (
	"context"
	"fmt"
	"testing"

	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
)

// runTraced runs q's plan on src — Database.Run with a configuration and
// the trace.
func runTraced(src PhysicalSource, q Query, opt ExecOptions) (*rel.Rel, *Trace, error) {
	p, err := PlanFor(q, src.Cat().Consts)
	if err != nil {
		return nil, nil, err
	}
	out, _, tr, err := p.Execute(context.Background(), src, opt)
	return out, tr, err
}

// accesses returns a plan's Access leaves in evaluation order, each once.
func accesses(p *Plan) []*Access {
	var out []*Access
	WalkPlan(p.Root, func(n Node) {
		if a, ok := n.(*Access); ok {
			out = append(out, a)
		}
	})
	return out
}

// planFixture loads the crafted graph into all four schemes as
// PhysicalSources keyed by a short name.
func planFixture(t *testing.T) (*craftedFixture, map[string]PhysicalSource) {
	t.Helper()
	fx := newCrafted(t)
	return fx, loadFour(t, fx.g, fx.cat)
}

// loadFour loads g into the four served schemes.
func loadFour(t *testing.T, g *rdf.Graph, cat Catalog) map[string]PhysicalSource {
	t.Helper()
	srcs := map[string]PhysicalSource{}
	var err error
	if srcs["rowtriple"], err = LoadRowTriple(rowstore.NewEngine(newStore()), g, cat, rdf.PSO, rdf.AllOrders()); err != nil {
		t.Fatal(err)
	}
	if srcs["rowvert"], err = LoadRowVert(rowstore.NewEngine(newStore()), g, cat); err != nil {
		t.Fatal(err)
	}
	if srcs["coltriple"], err = LoadColTriple(colstore.NewEngine(newStore()), g, cat, rdf.PSO); err != nil {
		t.Fatal(err)
	}
	if srcs["colvert"], err = LoadColVert(colstore.NewEngine(newStore()), g, cat); err != nil {
		t.Fatal(err)
	}
	return srcs
}

// TestPlanForCoversBenchmark asserts every benchmark query has a plan whose
// Access leaves are exactly the query's basic graph pattern — the plan
// layer and the Table 2 coverage analysis share one pattern model.
func TestPlanForCoversBenchmark(t *testing.T) {
	fx := newCrafted(t)
	c := fx.cat.Consts
	for _, q := range BenchmarkQueries() {
		p, err := PlanFor(q, c)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		want := PatternsOf(q.ID, c)
		got := accesses(p)
		if len(got) != len(want) {
			t.Fatalf("%v: %d accesses, want %d patterns", q, len(got), len(want))
		}
		for i, a := range got {
			if a.Pattern != want[i] {
				t.Errorf("%v access %d: %+v, want %+v", q, i, a.Pattern, want[i])
			}
		}
	}
	if _, err := PlanFor(Query{ID: 0}, c); err == nil {
		t.Error("PlanFor accepted an invalid query")
	}
	if _, err := PlanFor(Query{ID: Q1, Star: true}, c); err == nil {
		t.Error("PlanFor accepted q1*")
	}
}

// TestLoweringMergeVsHash asserts the executor's join-algorithm selection:
// subject-subject joins run as linear merge joins on the SO-clustered
// vertical schemes (the paper's "fast (linear) merge join") and as hash
// joins on the triple-stores, whose scan order is index-dependent; a join
// the plan licenses (Join.ProbeMax) probes its sibling access per outer row
// wherever a bound subject seeks, which is everywhere but the column
// triple-store; and no PlanFor plan carries the license, so the paper's
// grid never probes.
func TestLoweringMergeVsHash(t *testing.T) {
	fx, srcs := planFixture(t)
	const (
		hash  = JoinHash
		merge = JoinMerge
		probe = JoinIndexProbe
	)
	for _, tc := range []struct {
		src  string
		q    Query
		want []JoinStrategy // per executed join, in order
	}{
		{"rowvert", Query{ID: Q7}, []JoinStrategy{merge, merge}},
		{"colvert", Query{ID: Q7}, []JoinStrategy{merge, merge}},
		{"rowtriple", Query{ID: Q7}, []JoinStrategy{hash, hash}},
		{"coltriple", Query{ID: Q7}, []JoinStrategy{hash, hash}},
		// q5's first join is subject-subject (merge on vert); its second
		// joins an unordered intermediate on x (hash everywhere).
		{"rowvert", Query{ID: Q5}, []JoinStrategy{merge, hash}},
		{"coltriple", Query{ID: Q5}, []JoinStrategy{hash, hash}},
	} {
		_, tr, err := runTraced(srcs[tc.src], tc.q, ExecOptions{})
		if err != nil {
			t.Fatalf("%s %v: %v", tc.src, tc.q, err)
		}
		checkStrategies(t, fmt.Sprintf("%s %v", tc.src, tc.q), tr, tc.want)
	}

	// The anchored star { ?s origin DLC . ?s records ?x . ?s type ?t }, with
	// each sibling licensed: one outer row, so both joins probe.
	star := func(max int) Node {
		id := func(k string) TermRef { return C(rdf.ID(fx.ids[k])) }
		anchor := &Access{Pattern: Pat(V("s"), id("origin"), id("DLC"))}
		j1 := &Join{L: anchor, R: &Access{Pattern: Pat(V("s"), id("records"), V("x"))}, ProbeMax: max}
		return &Join{L: j1, R: &Access{Pattern: Pat(V("s"), id("type"), V("t"))}, ProbeMax: max}
	}
	for src, want := range map[string]JoinStrategy{"rowtriple": probe, "rowvert": probe, "colvert": probe, "coltriple": hash} {
		for _, opt := range []ExecOptions{{}, {Streaming: true, BatchRows: 1}} {
			out, _, tr, err := ExecutePlan(srcs[src], star(1), opt)
			if err != nil {
				t.Fatalf("%s star: %v", src, err)
			}
			checkStrategies(t, src+" licensed star", tr, []JoinStrategy{want, want})
			if got := fmt.Sprint(out.Data); got != fmt.Sprint([]uint64{fx.ids["s1"], fx.ids["s3"], fx.ids["Text"]}) {
				t.Errorf("%s licensed star returned %s", src, got)
			}
		}
		// Unlicensed, the same plan scans: merge on the vertical schemes.
		_, _, tr, err := ExecutePlan(srcs[src], star(0), ExecOptions{})
		if err != nil {
			t.Fatalf("%s star: %v", src, err)
		}
		for i, j := range tr.Joins {
			if j.Strategy == probe {
				t.Errorf("%s unlicensed star join %d probed", src, i)
			}
		}
	}

	for _, q := range BenchmarkQueries() {
		p, err := PlanFor(q, fx.cat.Consts)
		if err != nil {
			t.Fatal(err)
		}
		WalkPlan(p.Root, func(n Node) {
			if j, ok := n.(*Join); ok && j.ProbeMax != 0 {
				t.Errorf("%v: PlanFor licensed a probe (ProbeMax %d)", q, j.ProbeMax)
			}
		})
		for src := range srcs {
			_, tr, err := runTraced(srcs[src], q, ExecOptions{})
			if err != nil {
				t.Fatalf("%s %v: %v", src, q, err)
			}
			for i, j := range tr.Joins {
				if j.Strategy == probe {
					t.Errorf("%s %v join %d: a paper plan probed", src, q, i)
				}
			}
		}
	}
}

func checkStrategies(t *testing.T, what string, tr *Trace, want []JoinStrategy) {
	t.Helper()
	if len(tr.Joins) != len(want) {
		t.Fatalf("%s: %d joins, want %d (%+v)", what, len(tr.Joins), len(want), tr.Joins)
	}
	for i, w := range want {
		if got := tr.Joins[i].Strategy; got != w {
			t.Errorf("%s join %d (%s): %v, want %v", what, i, tr.Joins[i].Var, got, w)
		}
	}
}

// TestLoweringPartitionFanout asserts restriction pushdown: on partitioned
// schemes the unbound-property access of a restricted query visits exactly
// the interesting tables, its star variant visits the full roster, and
// triple-stores never fan out.
func TestLoweringPartitionFanout(t *testing.T) {
	fx, srcs := planFixture(t)
	nInteresting := len(fx.cat.Interesting)
	nAll := len(fx.cat.AllProps)
	cases := []struct {
		src   string
		q     Query
		scans int
	}{
		{"rowvert", Query{ID: Q2}, nInteresting},
		{"rowvert", Query{ID: Q2, Star: true}, nAll},
		{"colvert", Query{ID: Q6}, nInteresting},
		{"colvert", Query{ID: Q6, Star: true}, nAll},
		// q8 reads every property table twice (objects of <conferences>,
		// then the join back over all triples).
		{"rowvert", Query{ID: Q8}, 2 * nAll},
		{"rowtriple", Query{ID: Q2}, 0},
		{"coltriple", Query{ID: Q2, Star: true}, 0},
	}
	for _, tc := range cases {
		_, tr, err := runTraced(srcs[tc.src], tc.q, ExecOptions{})
		if err != nil {
			t.Fatalf("%s %v: %v", tc.src, tc.q, err)
		}
		if tr.PartitionScans != tc.scans {
			t.Errorf("%s %v: %d partition scans, want %d", tc.src, tc.q, tr.PartitionScans, tc.scans)
		}
	}
}

// TestProjectionPushdown asserts the demand analysis: q1 keeps only the
// object column of its single access, q2 keeps subject and property but
// not the object.
func TestProjectionPushdown(t *testing.T) {
	fx := newCrafted(t)
	c := fx.cat.Consts
	for _, tc := range []struct {
		q    Query
		kept [][]string // kept columns per access, in plan order
	}{
		{Query{ID: Q1}, [][]string{{"o"}}},
		{Query{ID: Q2}, [][]string{{"s"}, {"s", "p"}}},
		{Query{ID: Q3}, [][]string{{"s"}, {"s", "p", "o"}}},
	} {
		p, err := PlanFor(tc.q, c)
		if err != nil {
			t.Fatal(err)
		}
		accs := accesses(p)
		if len(accs) != len(tc.kept) {
			t.Fatalf("%v: %d accesses", tc.q, len(accs))
		}
		for i, a := range accs {
			if got := p.facts[a].cols; fmt.Sprint(got) != fmt.Sprint(tc.kept[i]) {
				t.Errorf("%v access %d: kept %v, want %v", tc.q, i, got, tc.kept[i])
			}
		}
	}
}

// scanCounter counts the scans a plan opens on the source it wraps.
type scanCounter struct {
	PhysicalSource
	scans int
}

func (c *scanCounter) StreamProp(p, s, o rdf.ID, need ScanCols, batchRows int) (RelIter, error) {
	c.scans++
	return c.PhysicalSource.StreamProp(p, s, o, need, batchRows)
}

func (c *scanCounter) StreamTriples(s, o rdf.ID, need ScanCols, batchRows int) RelIter {
	c.scans++
	return c.PhysicalSource.StreamTriples(s, o, need, batchRows)
}

// TestMalformedPlanFailsBeforeScan: a plan that breaks a schema rule fails
// in the analysis — NewPlan and ExecutePlan return the same error — before
// any scan opens or any operator charges, on every scheme.
func TestMalformedPlanFailsBeforeScan(t *testing.T) {
	fx, srcs := planFixture(t)
	c := fx.cat.Consts
	typed := &Access{Pattern: Pat(V("s"), C(c.Type), V("t"))}
	for _, tc := range []struct {
		name string
		root Node
		err  string
	}{
		{"join sharing no variable",
			&Join{L: typed, R: &Access{Pattern: Pat(V("x"), C(c.Language), V("y"))}},
			"join of [s t] and [x y] shares 0 variables, want 1"},
		{"join sharing two variables",
			&Join{L: typed, R: &Access{Pattern: Pat(V("s"), C(c.Language), V("t"))}},
			"join of [s t] and [s t] shares 2 variables, want 1"},
		{"filter on a missing column",
			&FilterNe{In: typed, Col: "z", Value: c.Text},
			`no column "z" in [s t]`},
		{"group on three keys",
			&Group{In: &Access{Pattern: Pat(V("s"), V("p"), V("o"))}, Keys: []string{"s", "p", "o"}},
			"group on 3 keys"},
		{"rename of the wrong length",
			&Project{In: typed, Cols: []string{"s"}, As: []string{"a", "b"}},
			"project renames 2 of 1 columns"},
		{"union of different widths",
			&Union{L: typed, R: &Project{In: typed, Cols: []string{"s"}}},
			"union of [s t] and [s]"},
	} {
		if _, err := NewPlan(tc.root); err == nil || err.Error() != tc.err {
			t.Errorf("%s: NewPlan error %v, want %q", tc.name, err, tc.err)
		}
		for name, src := range srcs {
			counted := &scanCounter{PhysicalSource: src}
			clock := src.Ops().Store.Clock()
			clock.Reset()
			if _, _, _, err := ExecutePlan(counted, tc.root, ExecOptions{Streaming: true}); err == nil || err.Error() != tc.err {
				t.Errorf("%s on %s: ExecutePlan error %v, want %q", tc.name, name, err, tc.err)
			}
			if counted.scans != 0 || clock.User() != 0 || clock.IO() != 0 {
				t.Errorf("%s on %s: %d scans opened, clock %v before failing", tc.name, name, counted.scans, clock)
			}
		}
	}
}
