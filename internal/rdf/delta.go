package rdf

// ApplyDelta folds an edit set into a graph: the result holds
// (g ∖ dels) ∪ adds, normalized (SPO-sorted, duplicate-free), sharing g's
// dictionary — identifiers stay stable across the fold, which is what lets
// a compacted snapshot keep serving plans compiled before it. The input
// graph is not modified.
//
// The fold is one linear merge of the SPO-sorted base with the sorted
// adds, skipping the dels as it passes them; a base that is not normalized
// is normalized (in a copy) first.
func ApplyDelta(g *Graph, adds, dels []Triple) *Graph {
	base := g.Triples
	if !g.Normalized() {
		base = append([]Triple(nil), base...)
		SPO.Sort(base)
		base = Dedup(base)
	}
	adds = sortedSet(adds)
	dels = sortedSet(dels)
	out := &Graph{Dict: g.Dict, Triples: make([]Triple, 0, len(base)+len(adds))}
	i, j, k := 0, 0, 0
	for i < len(base) || j < len(adds) {
		if j == len(adds) || i < len(base) && SPO.Less(base[i], adds[j]) {
			t := base[i]
			i++
			for k < len(dels) && SPO.Less(dels[k], t) {
				k++
			}
			if k == len(dels) || dels[k] != t {
				out.Triples = append(out.Triples, t)
			}
			continue
		}
		if i < len(base) && base[i] == adds[j] {
			i++
		}
		out.Triples = append(out.Triples, adds[j])
		j++
	}
	return out
}

// sortedSet returns an SPO-sorted, duplicate-free copy of ts.
func sortedSet(ts []Triple) []Triple {
	ts = append([]Triple(nil), ts...)
	SPO.Sort(ts)
	return Dedup(ts)
}
