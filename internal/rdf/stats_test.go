package rdf

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func statGraph() *Graph {
	g := NewGraph()
	typ := NewIRI("type")
	text := NewIRI("Text")
	// s1 and s2 are typed; s1 also links to s2, so s2 is both subject and object.
	g.Add(NewIRI("s1"), typ, text)
	g.Add(NewIRI("s2"), typ, text)
	g.Add(NewIRI("s1"), NewIRI("records"), NewIRI("s2"))
	g.Add(NewIRI("s1"), NewIRI("title"), NewLiteral("a title"))
	return g
}

func TestComputeStats(t *testing.T) {
	g := statGraph()
	st := ComputeStats(g)
	if st.Triples != 4 {
		t.Fatalf("Triples = %d", st.Triples)
	}
	if st.DistinctProperties != 3 {
		t.Fatalf("DistinctProperties = %d", st.DistinctProperties)
	}
	if st.DistinctSubjects != 2 {
		t.Fatalf("DistinctSubjects = %d", st.DistinctSubjects)
	}
	if st.DistinctObjects != 3 { // Text, s2, "a title"
		t.Fatalf("DistinctObjects = %d", st.DistinctObjects)
	}
	if st.SubjectObjectOverlap != 1 { // only s2
		t.Fatalf("SubjectObjectOverlap = %d", st.SubjectObjectOverlap)
	}
	if st.DictionaryStrings != g.Dict.Len() {
		t.Fatal("DictionaryStrings mismatch")
	}
	if st.DataSetBytes <= 0 {
		t.Fatal("DataSetBytes not positive")
	}
}

func TestPropDetails(t *testing.T) {
	g := statGraph()
	st := ComputeStats(g)
	pd := PropDetails(g)
	typ, _ := g.Dict.Lookup(NewIRI("type"))
	records, _ := g.Dict.Lookup(NewIRI("records"))
	if d := pd[typ]; d.Subjects != 2 || d.Objects != 1 {
		t.Fatalf("type detail = %+v", d)
	}
	if d := pd[records]; d.Subjects != 1 || d.Objects != 1 {
		t.Fatalf("records detail = %+v", d)
	}
	if len(pd) != st.DistinctProperties {
		t.Fatalf("PropDetails has %d properties, stats say %d", len(pd), st.DistinctProperties)
	}
	if st.PropertyCard(typ) != 2 {
		t.Fatalf("PropertyCard(type) = %d", st.PropertyCard(typ))
	}
	s1, _ := g.Dict.Lookup(NewIRI("s1"))
	s2, _ := g.Dict.Lookup(NewIRI("s2"))
	if st.SubjectCard(s1) != 3 || st.ObjectCard(s2) != 1 {
		t.Fatalf("per-constant cards wrong: subj(s1)=%d obj(s2)=%d",
			st.SubjectCard(s1), st.ObjectCard(s2))
	}
}

func TestTopK(t *testing.T) {
	freq := map[ID]int{1: 5, 2: 9, 3: 9, 4: 1}
	got := TopK(freq, 3)
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("TopK = %v", got)
	}
	if got := TopK(freq, 99); len(got) != 4 {
		t.Fatalf("TopK overflow = %v", got)
	}
}

func TestCFDMonotone(t *testing.T) {
	freq := map[ID]int{}
	total := 0
	for i := 1; i <= 100; i++ {
		freq[ID(i)] = 1000 / i // Zipf-ish
		total += 1000 / i
	}
	pts := CFD(freq, total, 20)
	if len(pts) != 20 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PctTriples < pts[i-1].PctTriples {
			t.Fatalf("CFD not monotone at %d: %v < %v", i, pts[i], pts[i-1])
		}
		if pts[i].PctItems < pts[i-1].PctItems {
			t.Fatalf("item pct not monotone at %d", i)
		}
	}
	last := pts[len(pts)-1]
	if last.PctItems != 100 || last.PctTriples < 99.999 {
		t.Fatalf("CFD does not end at (100,100): %+v", last)
	}
}

func TestCFDSkewVisible(t *testing.T) {
	// One item holds 90% of mass; the top decile must reflect that.
	freq := map[ID]int{1: 900}
	for i := 2; i <= 100; i++ {
		freq[ID(i)] = 1
	}
	pts := CFD(freq, 999, 10)
	if pts[0].PctTriples < 90 {
		t.Fatalf("top 10%% covers only %.1f%%", pts[0].PctTriples)
	}
}

func TestCFDEmpty(t *testing.T) {
	if pts := CFD(map[ID]int{}, 0, 10); pts != nil {
		t.Fatalf("empty CFD = %v", pts)
	}
}

func TestFormatTable1(t *testing.T) {
	out := ComputeStats(statGraph()).FormatTable1()
	for _, want := range []string{"total triples", "distinct properties", "strings in dictionary"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable1 missing %q:\n%s", want, out)
		}
	}
}

// refComputeStats is the map-based ComputeStats that the dense-array one
// replaced, kept as its reference.
func refComputeStats(g *Graph) *Stats {
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

// refPropDetails is the map-of-maps PropDetails that the dense-array one
// replaced, kept as its reference.
func refPropDetails(g *Graph) map[ID]PropDetail {
	subj := make(map[ID]map[ID]struct{})
	obj := make(map[ID]map[ID]struct{})
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

// randomStatsGraph builds an unnormalized graph over a dictionary with
// interned-but-unused identifiers between the used ones, numeric literals
// (signed zeros included, so min/max order shows), non-numeric literals,
// duplicate triples, and one property that never carries a numeric object.
func randomStatsGraph(rng *rand.Rand, triples int) *Graph {
	g := NewGraph()
	d := g.Dict
	var nodes, props, lits []ID
	for i := 0; i < 2+rng.Intn(40); i++ {
		nodes = append(nodes, d.Intern(NewIRI(fmt.Sprintf("n%d", i))))
		d.Intern(NewIRI(fmt.Sprintf("gap%d", i))) // never used by a triple
	}
	for i := 0; i < 1+rng.Intn(8); i++ {
		props = append(props, d.Intern(NewIRI(fmt.Sprintf("p%d", i))))
	}
	textOnly := d.Intern(NewIRI("textOnly"))
	for _, v := range []string{"0", "-0", "+0", "7", "-3.5", "12.25", "+4", "1e5", "abc", "", "-", "3.0"} {
		lits = append(lits, d.Intern(NewLiteral(v)))
	}
	word := d.Intern(NewLiteral("word"))
	pick := func(ids []ID) ID { return ids[rng.Intn(len(ids))] }
	for i := 0; i < triples; i++ {
		s := pick(nodes)
		switch r := rng.Intn(10); {
		case r == 0:
			g.AddIDs(s, textOnly, word)
		case r < 5:
			g.AddIDs(s, pick(props), pick(lits))
		default:
			g.AddIDs(s, pick(props), pick(nodes))
		}
		if rng.Intn(8) == 0 { // a duplicate
			g.Triples = append(g.Triples, g.Triples[len(g.Triples)-1])
		}
	}
	rng.Shuffle(len(g.Triples), func(i, j int) { g.Triples[i], g.Triples[j] = g.Triples[j], g.Triples[i] })
	return g
}

// TestStatsMatchMapReference holds the dense-array ComputeStats and
// PropDetails to their map-based references field for field — float
// bounds bit for bit — on random unnormalized graphs and the empty graph.
func TestStatsMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	graphs := []*Graph{NewGraph()}
	for i := 0; i < 200; i++ {
		graphs = append(graphs, randomStatsGraph(rng, rng.Intn(300)))
	}
	for i, g := range graphs {
		if got, want := ComputeStats(g), refComputeStats(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d: ComputeStats\n got %+v\nwant %+v", i, got, want)
		}
		got, want := PropDetails(g), refPropDetails(g)
		if len(got) != len(want) {
			t.Fatalf("graph %d: PropDetails has %d properties, want %d", i, len(got), len(want))
		}
		for p, w := range want {
			d, ok := got[p]
			if !ok || d.Subjects != w.Subjects || d.Objects != w.Objects || d.NumRows != w.NumRows ||
				math.Float64bits(d.NumMin) != math.Float64bits(w.NumMin) ||
				math.Float64bits(d.NumMax) != math.Float64bits(w.NumMax) {
				t.Fatalf("graph %d: property %d detail %+v (present %v), want %+v", i, p, d, ok, w)
			}
		}
	}
}
