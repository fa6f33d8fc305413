package rdf

import (
	"math/rand"
	"slices"
	"testing"
)

// refApplyDelta is the append-and-renormalize fold that the merge
// replaced, kept as its reference.
func refApplyDelta(g *Graph, adds, dels []Triple) *Graph {
	dead := make(map[Triple]struct{}, len(dels))
	for _, t := range dels {
		dead[t] = struct{}{}
	}
	out := &Graph{Dict: g.Dict}
	for _, t := range g.Triples {
		if _, ok := dead[t]; !ok {
			out.Triples = append(out.Triples, t)
		}
	}
	out.Triples = append(out.Triples, adds...)
	out.Normalize()
	return out
}

// TestApplyDeltaMatchesRenormalize holds the merge to the reference on
// random folds: adds already in the base, duplicate adds, dels absent from
// the base, triples both added and deleted, empty sides, and unnormalized
// bases.
func TestApplyDeltaMatchesRenormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	triple := func() Triple {
		return Triple{S: ID(1 + rng.Intn(12)), P: ID(1 + rng.Intn(4)), O: ID(1 + rng.Intn(12))}
	}
	some := func(n int, from []Triple) []Triple {
		var out []Triple
		for range n {
			if len(from) > 0 && rng.Intn(2) == 0 {
				out = append(out, from[rng.Intn(len(from))])
			} else {
				out = append(out, triple())
			}
		}
		return out
	}
	for i := 0; i < 500; i++ {
		g := NewGraph()
		for range rng.Intn(80) {
			g.Triples = append(g.Triples, triple())
		}
		if rng.Intn(4) > 0 {
			g.Normalize()
		}
		before := slices.Clone(g.Triples)
		adds := some(rng.Intn(30), g.Triples)
		dels := some(rng.Intn(30), append(slices.Clone(g.Triples), adds...))
		got, want := ApplyDelta(g, adds, dels), refApplyDelta(g, adds, dels)
		if !slices.Equal(got.Triples, want.Triples) {
			t.Fatalf("case %d: ApplyDelta\n got %v\nwant %v", i, got.Triples, want.Triples)
		}
		if got.Dict != g.Dict {
			t.Fatalf("case %d: folded graph does not share the dictionary", i)
		}
		if !slices.Equal(g.Triples, before) {
			t.Fatalf("case %d: ApplyDelta modified its input graph", i)
		}
	}
}
