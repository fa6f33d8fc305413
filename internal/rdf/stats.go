package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes a data set along the axes of the paper's Table 1.
type Stats struct {
	// Triples is the total number of statements.
	Triples int
	// DistinctProperties, DistinctSubjects, DistinctObjects count distinct
	// identifiers per role.
	DistinctProperties int
	DistinctSubjects   int
	DistinctObjects    int
	// SubjectObjectOverlap counts identifiers that occur both as a subject
	// and as an object ("distinct subjects that appear also as objects, and
	// vice versa").
	SubjectObjectOverlap int
	// DictionaryStrings is the number of distinct lexical forms interned.
	DictionaryStrings int
	// DataSetBytes approximates the on-disk footprint: dictionary strings
	// plus 3×8 bytes per encoded triple.
	DataSetBytes int64

	// PropFreq, SubjFreq, ObjFreq map identifier → number of triples in
	// which it plays the respective role. They feed the Figure 1 CFDs and
	// the data generator validation tests.
	PropFreq map[ID]int
	SubjFreq map[ID]int
	ObjFreq  map[ID]int
}

// ComputeStats scans the graph once and derives all Table 1 quantities.
// Dictionary identifiers are dense, so the per-role frequencies count into
// arrays indexed by identifier; the maps are filled from them once.
func ComputeStats(g *Graph) *Stats {
	n := maxID(g.Triples) + 1
	subj, prop, obj := make([]int, n), make([]int, n), make([]int, n)
	for _, t := range g.Triples {
		subj[t.S]++
		prop[t.P]++
		obj[t.O]++
	}
	st := &Stats{
		Triples:  len(g.Triples),
		PropFreq: freqMap(prop),
		SubjFreq: freqMap(subj),
		ObjFreq:  freqMap(obj),
	}
	st.DistinctProperties = len(st.PropFreq)
	st.DistinctSubjects = len(st.SubjFreq)
	st.DistinctObjects = len(st.ObjFreq)
	for id, c := range subj {
		if c > 0 && obj[id] > 0 {
			st.SubjectObjectOverlap++
		}
	}
	st.DictionaryStrings = g.Dict.Len()
	st.DataSetBytes = g.Dict.Bytes() + int64(len(g.Triples))*24
	return st
}

// maxID returns the largest identifier any triple holds (NoID for none).
func maxID(ts []Triple) ID {
	var m ID
	for _, t := range ts {
		m = max(m, t.S, t.P, t.O)
	}
	return m
}

// freqMap collects the nonzero entries of a count array indexed by
// identifier.
func freqMap(counts []int) map[ID]int {
	nz := 0
	for _, c := range counts {
		if c > 0 {
			nz++
		}
	}
	m := make(map[ID]int, nz)
	for id, c := range counts {
		if c > 0 {
			m[ID(id)] = c
		}
	}
	return m
}

// PropFreq counts the triples under each property — Stats.PropFreq
// without the subject and object maps ComputeStats also builds.
func PropFreq(ts []Triple) map[ID]int {
	freq := make(map[ID]int)
	for _, t := range ts {
		freq[t.P]++
	}
	return freq
}

// PropDetail holds per-property cardinalities beyond the raw triple count:
// how many distinct subjects and objects occur under the property, and the
// numeric profile of its object literals. Together with Stats' per-role
// frequency maps these are the selectivity inputs of the BGP compiler's
// cost model (a pattern binding the subject under property p matches on
// average PropFreq[p]/Subjects triples; a numeric range filter over p's
// objects keeps roughly the uniform-assumption overlap of [NumMin, NumMax]).
type PropDetail struct {
	Subjects int
	Objects  int
	// NumRows counts the property's triples whose object is a numeric
	// literal; NumMin and NumMax bound those values. NumRows == 0 means the
	// property carries no numeric objects and the bounds are meaningless.
	NumRows int
	NumMin  float64
	NumMax  float64
}

// PropDetails computes, for every property of the graph, the number of
// distinct subjects and distinct objects occurring under it, plus the
// numeric-object profile that drives range-filter selectivity estimates.
//
// Identifiers are dense, so it works on arrays indexed by identifier: a
// counting sort groups the triples' subjects and objects by property
// (stably, so each group keeps graph order), and one pass per group counts
// first sightings against seen-arrays stamped with the group's number —
// no clearing between groups. Numeric values are parsed once per distinct
// object identifier and cached.
func PropDetails(g *Graph) map[ID]PropDetail {
	ts := g.Triples
	n := int(maxID(ts)) + 1
	start := make([]int, n+1)
	for _, t := range ts {
		start[t.P+1]++
	}
	for p := 1; p <= n; p++ {
		start[p] += start[p-1]
	}
	subjs, objs := make([]ID, len(ts)), make([]ID, len(ts))
	at := append([]int(nil), start[:n]...)
	for _, t := range ts {
		subjs[at[t.P]], objs[at[t.P]] = t.S, t.O
		at[t.P]++
	}

	const numUnknown, numYes, numNo = 0, 1, 2
	numKind := make([]uint8, n)
	numVal := make([]float64, n)
	seenS, seenO := make([]uint32, n), make([]uint32, n)
	var stamp uint32
	out := make(map[ID]PropDetail)
	for p := 0; p < n; p++ {
		lo, hi := start[p], start[p+1]
		if lo == hi {
			continue
		}
		stamp++
		var d PropDetail
		for i := lo; i < hi; i++ {
			s, o := subjs[i], objs[i]
			if seenS[s] != stamp {
				seenS[s] = stamp
				d.Subjects++
			}
			if seenO[o] != stamp {
				seenO[o] = stamp
				d.Objects++
			}
			if numKind[o] == numUnknown {
				numKind[o] = numNo
				if v, ok := NumericTerm(g.Dict.Term(o)); ok {
					numKind[o], numVal[o] = numYes, v
				}
			}
			if numKind[o] != numYes {
				continue
			}
			v := numVal[o]
			if d.NumRows == 0 {
				d.NumMin, d.NumMax = v, v
			}
			d.NumRows++
			if v < d.NumMin {
				d.NumMin = v
			}
			if v > d.NumMax {
				d.NumMax = v
			}
		}
		out[ID(p)] = d
	}
	return out
}

// PropertyCard returns the number of triples carrying property id.
func (st *Stats) PropertyCard(id ID) int { return st.PropFreq[id] }

// SubjectCard returns the number of triples whose subject is id.
func (st *Stats) SubjectCard(id ID) int { return st.SubjFreq[id] }

// ObjectCard returns the number of triples whose object is id.
func (st *Stats) ObjectCard(id ID) int { return st.ObjFreq[id] }

// TopK returns the k most frequent identifiers in freq, most frequent first.
// Ties break by identifier for determinism.
func TopK(freq map[ID]int, k int) []ID {
	ids := make([]ID, 0, len(freq))
	for id := range freq {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if freq[ids[i]] != freq[ids[j]] {
			return freq[ids[i]] > freq[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// CFDPoint is one point of a cumulative frequency distribution: the top
// PctItems percent of items (by descending frequency) account for PctTriples
// percent of all triples.
type CFDPoint struct {
	PctItems   float64
	PctTriples float64
}

// CFD computes the cumulative frequency distribution of freq over total
// triples, sampled at steps evenly spaced item-percentiles (plus the 100%
// point). It reproduces one curve of the paper's Figure 1.
func CFD(freq map[ID]int, total int, steps int) []CFDPoint {
	if steps < 1 {
		steps = 1
	}
	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	n := len(counts)
	if n == 0 || total == 0 {
		return nil
	}
	// Prefix sums for O(1) cumulative lookups.
	prefix := make([]int, n+1)
	for i, c := range counts {
		prefix[i+1] = prefix[i] + c
	}
	pts := make([]CFDPoint, 0, steps+1)
	for s := 1; s <= steps; s++ {
		frac := float64(s) / float64(steps)
		k := int(frac * float64(n))
		if k < 1 {
			k = 1
		}
		pts = append(pts, CFDPoint{
			PctItems:   100 * float64(k) / float64(n),
			PctTriples: 100 * float64(prefix[k]) / float64(total),
		})
	}
	return pts
}

// FormatTable1 renders the stats in the layout of the paper's Table 1.
func (st *Stats) FormatTable1() string {
	var b strings.Builder
	row := func(label string, v interface{}) {
		fmt.Fprintf(&b, "%-52s %14v\n", label, v)
	}
	row("total triples", st.Triples)
	row("distinct properties", st.DistinctProperties)
	row("distinct subjects", st.DistinctSubjects)
	row("distinct objects", st.DistinctObjects)
	row("distinct subjects that appear also as objects", st.SubjectObjectOverlap)
	row("strings in dictionary", st.DictionaryStrings)
	row("data set size (bytes)", st.DataSetBytes)
	return b.String()
}
