package core

import (
	"fmt"
	"testing"

	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rowstore"
)

// planFixture loads the crafted graph into all four schemes as
// PhysicalSources keyed by a short name.
func planFixture(t *testing.T) (*craftedFixture, map[string]PhysicalSource) {
	t.Helper()
	fx := newCrafted(t)
	srcs := map[string]PhysicalSource{}
	{
		db, err := LoadRowTriple(rowstore.NewEngine(newStore()), fx.g, fx.cat, rdf.PSO, rdf.AllOrders())
		if err != nil {
			t.Fatal(err)
		}
		srcs["rowtriple"] = db
	}
	{
		db, err := LoadRowVert(rowstore.NewEngine(newStore()), fx.g, fx.cat)
		if err != nil {
			t.Fatal(err)
		}
		srcs["rowvert"] = db
	}
	{
		db, err := LoadColTriple(colstore.NewEngine(newStore()), fx.g, fx.cat, rdf.PSO)
		if err != nil {
			t.Fatal(err)
		}
		srcs["coltriple"] = db
	}
	{
		db, err := LoadColVert(colstore.NewEngine(newStore()), fx.g, fx.cat)
		if err != nil {
			t.Fatal(err)
		}
		srcs["colvert"] = db
	}
	return fx, srcs
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
		got := p.Accesses()
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
// joins on the triple-stores, whose scan order is index-dependent.
func TestLoweringMergeVsHash(t *testing.T) {
	_, srcs := planFixture(t)
	cases := []struct {
		src   string
		q     Query
		merge []bool // expected per executed join, in order
	}{
		{"rowvert", Query{ID: Q7}, []bool{true, true}},
		{"colvert", Query{ID: Q7}, []bool{true, true}},
		{"rowtriple", Query{ID: Q7}, []bool{false, false}},
		{"coltriple", Query{ID: Q7}, []bool{false, false}},
		// q5's first join is subject-subject (merge on vert); its second
		// joins an unordered intermediate on x (hash everywhere).
		{"rowvert", Query{ID: Q5}, []bool{true, false}},
		{"coltriple", Query{ID: Q5}, []bool{false, false}},
	}
	for _, tc := range cases {
		_, tr, err := ExecuteTraced(srcs[tc.src], tc.q, ExecOptions{})
		if err != nil {
			t.Fatalf("%s %v: %v", tc.src, tc.q, err)
		}
		if len(tr.Joins) != len(tc.merge) {
			t.Fatalf("%s %v: %d joins, want %d (%+v)", tc.src, tc.q, len(tr.Joins), len(tc.merge), tr.Joins)
		}
		for i, want := range tc.merge {
			if tr.Joins[i].Merge != want {
				t.Errorf("%s %v join %d (%s): merge=%v, want %v",
					tc.src, tc.q, i, tr.Joins[i].Var, tr.Joins[i].Merge, want)
			}
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
		_, tr, err := ExecuteTraced(srcs[tc.src], tc.q, ExecOptions{})
		if err != nil {
			t.Fatalf("%s %v: %v", tc.src, tc.q, err)
		}
		if tr.PartitionScans != tc.scans {
			t.Errorf("%s %v: %d partition scans, want %d", tc.src, tc.q, tr.PartitionScans, tc.scans)
		}
	}
}

// TestProjectionPushdown asserts the demand analysis: q1 needs only the
// object column of its single access, q2 needs subject and property but
// not the object.
func TestProjectionPushdown(t *testing.T) {
	fx := newCrafted(t)
	c := fx.cat.Consts
	for _, tc := range []struct {
		q    Query
		need []map[string]bool // demanded vars per access, in plan order
	}{
		{Query{ID: Q1}, []map[string]bool{{"o": true}}},
		{Query{ID: Q2}, []map[string]bool{{"s": true}, {"s": true, "p": true}}},
		{Query{ID: Q3}, []map[string]bool{{"s": true}, {"s": true, "p": true, "o": true}}},
	} {
		p, err := PlanFor(tc.q, c)
		if err != nil {
			t.Fatal(err)
		}
		req := requiredVars(p.Root)
		accs := p.Accesses()
		if len(accs) != len(tc.need) {
			t.Fatalf("%v: %d accesses", tc.q, len(accs))
		}
		for i, a := range accs {
			got := req[a]
			if fmt.Sprint(got) != fmt.Sprint(tc.need[i]) {
				t.Errorf("%v access %d: demanded %v, want %v", tc.q, i, got, tc.need[i])
			}
		}
	}
}
