package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestDictionaryInternStable(t *testing.T) {
	d := NewDictionary()
	a := d.InternIRI("a")
	b := d.InternIRI("b")
	if a == b {
		t.Fatal("distinct terms share an id")
	}
	if got := d.InternIRI("a"); got != a {
		t.Fatalf("re-intern changed id: %d vs %d", got, a)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestDictionaryKindsDistinct(t *testing.T) {
	d := NewDictionary()
	iri := d.InternIRI("same")
	lit := d.InternLiteral("same")
	if iri == lit {
		t.Fatal("IRI and literal with equal value interned to same id")
	}
	if d.Term(iri).Kind != IRI || d.Term(lit).Kind != Literal {
		t.Fatal("kinds lost")
	}
}

func TestDictionaryLookup(t *testing.T) {
	d := NewDictionary()
	id := d.InternLiteral("end")
	if got := d.LookupLiteral("end"); got != id {
		t.Fatalf("LookupLiteral = %d, want %d", got, id)
	}
	if got := d.LookupLiteral("missing"); got != NoID {
		t.Fatalf("missing literal returned %d", got)
	}
	if got := d.LookupIRI("missing"); got != NoID {
		t.Fatalf("missing IRI returned %d", got)
	}
}

func TestDictionaryTermPanicsOnInvalid(t *testing.T) {
	d := NewDictionary()
	d.InternIRI("x")
	for _, id := range []ID{NoID, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Term(%d) did not panic", id)
				}
			}()
			d.Term(id)
		}()
	}
}

func TestDictionaryBytes(t *testing.T) {
	d := NewDictionary()
	d.InternIRI("abcd") // 4 + 1
	d.InternLiteral("xy")
	if got := d.Bytes(); got != 5+3 {
		t.Fatalf("Bytes = %d, want 8", got)
	}
}

func TestDictionaryConcurrent(t *testing.T) {
	d := NewDictionary()
	const goroutines = 8
	const n = 500
	var wg sync.WaitGroup
	ids := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, n)
			for i := 0; i < n; i++ {
				ids[g][i] = d.InternIRI(fmt.Sprintf("term-%d", i))
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for g := 1; g < goroutines; g++ {
		for i := 0; i < n; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d interned term-%d as %d, goroutine 0 as %d", g, i, ids[g][i], ids[0][i])
			}
		}
	}
}

func TestDictionaryIDs(t *testing.T) {
	d := NewDictionary()
	d.InternIRI("keep-1")
	d.InternIRI("drop")
	d.InternIRI("keep-2")
	got := d.IDs(func(tm Term) bool { return len(tm.Value) > 4 })
	if len(got) != 2 {
		t.Fatalf("IDs returned %v", got)
	}
	if d.Term(got[0]).Value != "keep-1" || d.Term(got[1]).Value != "keep-2" {
		t.Fatalf("IDs returned wrong terms: %v", got)
	}
}

// shardedCorpus builds n distinct terms mixing IRIs and literals, with
// lexical collisions across kinds (the same value as IRI and literal must
// intern separately).
func shardedCorpus(n int) []Term {
	terms := make([]Term, 0, n)
	for i := 0; len(terms) < n; i++ {
		terms = append(terms, NewIRI(fmt.Sprintf("item/%d", i)))
		if len(terms) < n {
			terms = append(terms, NewLiteral(fmt.Sprintf("item/%d", i)))
		}
	}
	return terms
}

// refDict is the reference Dictionary is held to: one map and one slice,
// issuing identifiers in Intern call order.
type refDict struct {
	ids   map[Term]ID
	terms []Term
	bytes int64
}

func (r *refDict) intern(t Term) ID {
	if id, ok := r.ids[t]; ok {
		return id
	}
	r.terms = append(r.terms, t)
	r.ids[t] = ID(len(r.terms))
	r.bytes += int64(len(t.Value)) + 1
	return ID(len(r.terms))
}

// TestShardedSequentialEquivalence interns one corpus through the sharded
// Dictionary and the map-plus-slice reference in lockstep and demands
// indistinguishable behaviour: same identifiers (first-occurrence order,
// what deterministic ingest relies on), same totals, same lookups.
func TestShardedSequentialEquivalence(t *testing.T) {
	corpus := shardedCorpus(10_000) // > one term block, so growth is exercised
	ref := &refDict{ids: map[Term]ID{}}
	d := NewDictionary()
	for i, tm := range corpus {
		// Every other step re-interns an earlier term, which must not move.
		for _, x := range []Term{tm, corpus[i/2]} {
			if a, b := ref.intern(x), d.Intern(x); a != b {
				t.Fatalf("Intern(%v): reference id %d, dictionary id %d", x, a, b)
			}
		}
	}
	if d.Len() != len(ref.terms) || d.Bytes() != ref.bytes {
		t.Fatalf("totals: dictionary %d terms / %d bytes, reference %d / %d", d.Len(), d.Bytes(), len(ref.terms), ref.bytes)
	}
	for i, tm := range ref.terms {
		if got := d.Term(ID(i + 1)); got != tm {
			t.Fatalf("Term(%d) = %v, want %v", i+1, got, tm)
		}
		if id, ok := d.Lookup(tm); !ok || id != ID(i+1) {
			t.Fatalf("Lookup(%v) = (%d,%v), want (%d,true)", tm, id, ok, i+1)
		}
	}
	if _, ok := d.Lookup(NewIRI("absent")); ok {
		t.Fatal("Lookup of an absent term succeeded")
	}
	var want []ID
	for i, tm := range ref.terms {
		if tm.Kind == Literal {
			want = append(want, ID(i+1))
		}
	}
	if got := d.IDs(func(tm Term) bool { return tm.Kind == Literal }); !slices.Equal(got, want) {
		t.Fatalf("IDs(literal) = %d entries, want %d", len(got), len(want))
	}
}

// TestShardedConcurrentDense hammers Intern/Lookup/Term from many
// goroutines over overlapping term sets and then checks the ID-density
// invariant: exactly the identifiers 1..Len were issued, each term got
// one, and every reverse lookup round-trips. Run with -race this is also
// the memory-safety proof for the lock split.
func TestShardedConcurrentDense(t *testing.T) {
	const (
		goroutines = 16
		distinct   = 5_000
	)
	corpus := shardedCorpus(distinct)
	d := NewDictionary()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Each goroutine interns the whole corpus in its own order,
			// so every term races between goroutines, and immediately
			// verifies its own issued ids.
			order := rng.Perm(len(corpus))
			for _, i := range order {
				id := d.Intern(corpus[i])
				if id == NoID {
					t.Errorf("Intern(%v) issued NoID", corpus[i])
					return
				}
				if got := d.Term(id); got != corpus[i] {
					t.Errorf("Term(%d) = %v, want %v", id, got, corpus[i])
					return
				}
				if lid, ok := d.Lookup(corpus[i]); !ok || lid != id {
					t.Errorf("Lookup(%v) = (%d,%v), want (%d,true)", corpus[i], lid, ok, id)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()

	if d.Len() != distinct {
		t.Fatalf("Len = %d, want %d (duplicate or lost identifiers)", d.Len(), distinct)
	}
	// Density: the issued identifiers are a bijection corpus <-> 1..Len.
	seen := make([]bool, distinct+1)
	for _, tm := range corpus {
		id, ok := d.Lookup(tm)
		if !ok {
			t.Fatalf("term %v lost", tm)
		}
		if id < 1 || int(id) > distinct {
			t.Fatalf("term %v has out-of-range id %d", tm, id)
		}
		if seen[id] {
			t.Fatalf("id %d issued to two terms", id)
		}
		seen[id] = true
		if got := d.Term(id); got != tm {
			t.Fatalf("Term(%d) = %v, want %v", id, got, tm)
		}
	}
	var wantBytes int64
	for _, tm := range corpus {
		wantBytes += int64(len(tm.Value)) + 1
	}
	if d.Bytes() != wantBytes {
		t.Fatalf("Bytes = %d, want %d", d.Bytes(), wantBytes)
	}
}

// TestShardedSnapshotDuringIntern reads Len/Bytes/IDs concurrently with a
// storm of interning goroutines (run under -race in CI): the snapshot
// accessors must only ever cover fully published identifiers — every
// Term(id) for id <= Len() must return a real term, never a torn or zero
// value, and never panic on an unpublished block.
func TestShardedSnapshotDuringIntern(t *testing.T) {
	const (
		interners = 4
		perG      = 6_000 // interners×perG crosses several 4096-term blocks
	)
	d := NewDictionary()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < interners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d.Intern(NewIRI(fmt.Sprintf("t/%d/%d", g, i)))
			}
		}(g)
	}
	readerDone := make(chan error, 1)
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := d.Len()
			for i := 1; i <= n; i++ {
				if tm := d.Term(ID(i)); tm.Value == "" {
					readerDone <- fmt.Errorf("Term(%d) returned an empty term below Len=%d", i, n)
					return
				}
			}
			if got := len(d.IDs(func(Term) bool { return true })); got > d.Len() {
				readerDone <- fmt.Errorf("IDs returned %d entries, above Len", got)
				return
			}
			_ = d.Bytes()
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	if d.Len() != interners*perG {
		t.Fatalf("Len = %d, want %d", d.Len(), interners*perG)
	}
}

// TestShardedGraphLoads proves the dictionary slots into a Graph and the
// stats pipeline unchanged.
func TestShardedGraphLoads(t *testing.T) {
	g := NewGraph()
	g.Add(NewIRI("s1"), NewIRI("type"), NewLiteral("Text"))
	g.Add(NewIRI("s2"), NewIRI("type"), NewLiteral("Text"))
	g.Add(NewIRI("s1"), NewIRI("records"), NewIRI("s2"))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := ComputeStats(g)
	if st.Triples != 3 || st.DistinctProperties != 2 || st.DistinctSubjects != 2 {
		t.Fatalf("stats off: %+v", st)
	}
	if st.DictionaryStrings != g.Dict.Len() {
		t.Fatalf("DictionaryStrings = %d, want %d", st.DictionaryStrings, g.Dict.Len())
	}
}
