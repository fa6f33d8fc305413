package rdf

import (
	"fmt"
	"sort"
)

// Graph is an in-memory dictionary-encoded RDF data set: the unit handed to
// storage engines for loading. The triple slice is not required to be sorted
// or duplicate-free until Normalize is called; loaders call Normalize.
type Graph struct {
	Dict    Dict
	Triples []Triple
}

// NewGraph returns an empty graph with a fresh dictionary.
func NewGraph() *Graph {
	return &Graph{Dict: NewDictionary()}
}

// Add encodes and appends one statement.
func (g *Graph) Add(s, p, o Term) {
	g.Triples = append(g.Triples, Triple{
		S: g.Dict.Intern(s),
		P: g.Dict.Intern(p),
		O: g.Dict.Intern(o),
	})
}

// AddIDs appends one pre-encoded statement. Callers are responsible for the
// identifiers having been issued by g.Dict.
func (g *Graph) AddIDs(s, p, o ID) {
	g.Triples = append(g.Triples, Triple{S: s, P: p, O: o})
}

// Normalize sorts the triples in SPO order and removes duplicates, turning
// the bag of statements into a set. It returns the number of duplicates
// removed.
func (g *Graph) Normalize() int {
	before := len(g.Triples)
	SPO.Sort(g.Triples)
	g.Triples = Dedup(g.Triples)
	return before - len(g.Triples)
}

// Normalized reports whether the triples are SPO-sorted and duplicate-free,
// the state Normalize leaves them in and Has relies on.
func (g *Graph) Normalized() bool {
	for i := 1; i < len(g.Triples); i++ {
		if !SPO.Less(g.Triples[i-1], g.Triples[i]) {
			return false
		}
	}
	return true
}

// Has reports whether t is one of the graph's triples, by binary search:
// the graph must be normalized.
func (g *Graph) Has(t Triple) bool {
	i := sort.Search(len(g.Triples), func(i int) bool { return !SPO.Less(g.Triples[i], t) })
	return i < len(g.Triples) && g.Triples[i] == t
}

// Len returns the number of triples currently in the graph.
func (g *Graph) Len() int { return len(g.Triples) }

// Decode returns the three terms of t.
func (g *Graph) Decode(t Triple) (s, p, o Term) {
	return g.Dict.Term(t.S), g.Dict.Term(t.P), g.Dict.Term(t.O)
}

// GraphsIdentical reports whether two graphs are byte-identical: the same
// triples in the same order over equal dictionaries (every identifier maps
// to the same term, with equal totals). This is the determinism contract
// of the parallel bulk loader — its deterministic mode must reproduce
// ReadNTriples's output exactly.
func GraphsIdentical(a, b *Graph) bool {
	if len(a.Triples) != len(b.Triples) {
		return false
	}
	for i := range a.Triples {
		if a.Triples[i] != b.Triples[i] {
			return false
		}
	}
	n := a.Dict.Len()
	if n != b.Dict.Len() || a.Dict.Bytes() != b.Dict.Bytes() {
		return false
	}
	for i := 1; i <= n; i++ {
		if a.Dict.Term(ID(i)) != b.Dict.Term(ID(i)) {
			return false
		}
	}
	return true
}

// Validate checks internal consistency: every identifier referenced by a
// triple must have been issued by the dictionary. It is used by tests and by
// the loader after parsing untrusted input.
func (g *Graph) Validate() error {
	n := ID(g.Dict.Len())
	for i, t := range g.Triples {
		if t.S == NoID || t.S > n {
			return fmt.Errorf("rdf: triple %d has invalid subject id %d", i, t.S)
		}
		if t.P == NoID || t.P > n {
			return fmt.Errorf("rdf: triple %d has invalid property id %d", i, t.P)
		}
		if t.O == NoID || t.O > n {
			return fmt.Errorf("rdf: triple %d has invalid object id %d", i, t.O)
		}
	}
	return nil
}
