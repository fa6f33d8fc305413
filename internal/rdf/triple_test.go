package rdf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrderKeyTripleInverse(t *testing.T) {
	f := func(s, p, o uint32) bool {
		tr := Triple{S: ID(s) + 1, P: ID(p) + 1, O: ID(o) + 1}
		for _, ord := range AllOrders() {
			a, b, c := ord.Key(tr)
			if ord.Triple(a, b, c) != tr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrderSortIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := make([]Triple, 500)
	for i := range ts {
		ts[i] = Triple{S: ID(rng.Intn(20) + 1), P: ID(rng.Intn(5) + 1), O: ID(rng.Intn(30) + 1)}
	}
	for _, ord := range AllOrders() {
		cp := append([]Triple(nil), ts...)
		ord.Sort(cp)
		if !ord.IsSorted(cp) {
			t.Fatalf("%v: not sorted after Sort", ord)
		}
		if len(cp) != len(ts) {
			t.Fatalf("%v: sort changed length", ord)
		}
	}
}

func TestOrderLessTotal(t *testing.T) {
	x := Triple{S: 1, P: 2, O: 3}
	y := Triple{S: 1, P: 2, O: 4}
	if !SPO.Less(x, y) || SPO.Less(y, x) {
		t.Fatal("SPO.Less broken on object tiebreak")
	}
	if SPO.Less(x, x) {
		t.Fatal("Less not irreflexive")
	}
	// PSO compares property first.
	a := Triple{S: 9, P: 1, O: 9}
	b := Triple{S: 1, P: 2, O: 1}
	if !PSO.Less(a, b) {
		t.Fatal("PSO should order by property first")
	}
}

func TestDedup(t *testing.T) {
	ts := []Triple{{1, 1, 1}, {1, 1, 1}, {1, 1, 2}, {1, 1, 2}, {2, 1, 1}}
	got := Dedup(ts)
	want := []Triple{{1, 1, 1}, {1, 1, 2}, {2, 1, 1}}
	if len(got) != len(want) {
		t.Fatalf("Dedup len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Dedup[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out := Dedup(nil); len(out) != 0 {
		t.Fatal("Dedup(nil) should be empty")
	}
}

func TestOrderString(t *testing.T) {
	if SPO.String() != "SPO" || PSO.String() != "PSO" || OPS.String() != "OPS" {
		t.Fatal("order names wrong")
	}
}

func TestGraphNormalize(t *testing.T) {
	g := NewGraph()
	g.Add(NewIRI("s"), NewIRI("p"), NewIRI("o"))
	g.Add(NewIRI("s"), NewIRI("p"), NewIRI("o"))
	g.Add(NewIRI("s2"), NewIRI("p"), NewIRI("o"))
	removed := g.Normalize()
	if removed != 1 {
		t.Fatalf("Normalize removed %d, want 1", removed)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	if !SPO.IsSorted(g.Triples) {
		t.Fatal("not sorted after Normalize")
	}
}

func TestGraphHasNormalized(t *testing.T) {
	g := NewGraph()
	for _, v := range []string{"c", "a", "b", "a"} {
		g.Add(NewIRI(v), NewIRI("p"), NewIRI("o"))
	}
	if g.Normalized() {
		t.Fatal("unsorted graph with a duplicate reports normalized")
	}
	g.Normalize()
	if !g.Normalized() {
		t.Fatal("not normalized after Normalize")
	}
	for _, tr := range g.Triples {
		if !g.Has(tr) {
			t.Fatalf("Has(%v) = false for a member", tr)
		}
		for _, miss := range []Triple{{tr.S, tr.P, tr.O + 10}, {tr.S, tr.P, 0}, {tr.S + 10, tr.P, tr.O}} {
			if g.Has(miss) {
				t.Fatalf("Has(%v) = true for a non-member", miss)
			}
		}
	}
	g.Triples = append(g.Triples, g.Triples[len(g.Triples)-1])
	if g.Normalized() {
		t.Fatal("trailing duplicate reports normalized")
	}
}

func TestGraphValidate(t *testing.T) {
	g := NewGraph()
	g.Add(NewIRI("s"), NewIRI("p"), NewIRI("o"))
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g.Triples = append(g.Triples, Triple{S: 999, P: 1, O: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("invalid subject id accepted")
	}
	g.Triples[len(g.Triples)-1] = Triple{S: 1, P: NoID, O: 1}
	if err := g.Validate(); err == nil {
		t.Fatal("NoID property accepted")
	}
	g.Triples[len(g.Triples)-1] = Triple{S: 1, P: 1, O: 999}
	if err := g.Validate(); err == nil {
		t.Fatal("invalid object id accepted")
	}
}

func TestGraphDecode(t *testing.T) {
	g := NewGraph()
	g.Add(NewIRI("s"), NewIRI("p"), NewLiteral("o"))
	s, p, o := g.Decode(g.Triples[0])
	if s.Value != "s" || p.Value != "p" || o.Value != "o" || o.Kind != Literal {
		t.Fatalf("Decode: %v %v %v", s, p, o)
	}
}
