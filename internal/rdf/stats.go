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
func ComputeStats(g *Graph) *Stats {
	st := &Stats{
		Triples:  len(g.Triples),
		PropFreq: make(map[ID]int),
		SubjFreq: make(map[ID]int),
		ObjFreq:  make(map[ID]int),
	}
	for _, t := range g.Triples {
		st.SubjFreq[t.S]++
		st.PropFreq[t.P]++
		st.ObjFreq[t.O]++
	}
	st.DistinctProperties = len(st.PropFreq)
	st.DistinctSubjects = len(st.SubjFreq)
	st.DistinctObjects = len(st.ObjFreq)
	for s := range st.SubjFreq {
		if _, ok := st.ObjFreq[s]; ok {
			st.SubjectObjectOverlap++
		}
	}
	st.DictionaryStrings = g.Dict.Len()
	st.DataSetBytes = g.Dict.Bytes() + int64(len(g.Triples))*24
	return st
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
func PropDetails(g *Graph) map[ID]PropDetail {
	subj := make(map[ID]map[ID]struct{})
	obj := make(map[ID]map[ID]struct{})
	// Numeric values are parsed once per distinct object identifier, not
	// once per triple.
	numCache := make(map[ID]float64)
	numKnown := make(map[ID]bool)
	numOf := func(id ID) (float64, bool) {
		if known, ok := numKnown[id]; ok {
			if !known {
				return 0, false
			}
			return numCache[id], true
		}
		v, ok := NumericTerm(g.Dict.Term(id))
		numKnown[id] = ok
		if ok {
			numCache[id] = v
		}
		return v, ok
	}
	nums := make(map[ID]*PropDetail)
	for _, t := range g.Triples {
		s, ok := subj[t.P]
		if !ok {
			s = make(map[ID]struct{})
			subj[t.P] = s
		}
		s[t.S] = struct{}{}
		o, ok := obj[t.P]
		if !ok {
			o = make(map[ID]struct{})
			obj[t.P] = o
		}
		o[t.O] = struct{}{}
		if v, ok := numOf(t.O); ok {
			d := nums[t.P]
			if d == nil {
				d = &PropDetail{NumMin: v, NumMax: v}
				nums[t.P] = d
			}
			d.NumRows++
			if v < d.NumMin {
				d.NumMin = v
			}
			if v > d.NumMax {
				d.NumMax = v
			}
		}
	}
	out := make(map[ID]PropDetail, len(subj))
	for p, s := range subj {
		d := PropDetail{Subjects: len(s), Objects: len(obj[p])}
		if n := nums[p]; n != nil {
			d.NumRows, d.NumMin, d.NumMax = n.NumRows, n.NumMin, n.NumMax
		}
		out[p] = d
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
