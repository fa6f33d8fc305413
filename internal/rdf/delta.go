package rdf

// ApplyDelta folds an edit set into a graph: the result holds
// (g ∖ dels) ∪ adds, normalized (SPO-sorted, duplicate-free), sharing g's
// dictionary — identifiers stay stable across the fold, which is what lets
// a compacted snapshot keep serving plans compiled before it. The input
// graph is not modified.
func ApplyDelta(g *Graph, adds, dels []Triple) *Graph {
	dead := make(map[Triple]struct{}, len(dels))
	for _, t := range dels {
		dead[t] = struct{}{}
	}
	out := &Graph{Dict: g.Dict}
	out.Triples = make([]Triple, 0, len(g.Triples)+len(adds))
	for _, t := range g.Triples {
		if _, ok := dead[t]; !ok {
			out.Triples = append(out.Triples, t)
		}
	}
	out.Triples = append(out.Triples, adds...)
	out.Normalize()
	return out
}
