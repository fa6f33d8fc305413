package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"blackswan/internal/colstore"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
)

// overlayBuilders lists the four scheme constructors under their serving
// configurations, as PhysicalSources.
func overlayBuilders() []struct {
	name  string
	build func(g *rdf.Graph, cat Catalog) (PhysicalSource, error)
} {
	return []struct {
		name  string
		build func(g *rdf.Graph, cat Catalog) (PhysicalSource, error)
	}{
		{"rowtriple", func(g *rdf.Graph, cat Catalog) (PhysicalSource, error) {
			return LoadRowTriple(rowstore.NewEngine(newStore()), g, cat, rdf.PSO, rdf.AllOrders())
		}},
		{"rowvert", func(g *rdf.Graph, cat Catalog) (PhysicalSource, error) {
			return LoadRowVert(rowstore.NewEngine(newStore()), g, cat)
		}},
		{"coltriple", func(g *rdf.Graph, cat Catalog) (PhysicalSource, error) {
			return LoadColTriple(colstore.NewEngine(newStore()), g, cat, rdf.PSO)
		}},
		{"colvert", func(g *rdf.Graph, cat Catalog) (PhysicalSource, error) {
			return LoadColVert(colstore.NewEngine(newStore()), g, cat)
		}},
	}
}

// randomEdit derives a random edit set over g: deletions sampled from the
// base (never draining a property completely, so the merged catalog stays
// valid), additions recombining existing identifiers plus a brand-new
// property and subject interned into the shared dictionary.
func randomEdit(rng *rand.Rand, g *rdf.Graph, cat Catalog) (adds, dels []rdf.Triple) {
	base := make(map[rdf.Triple]struct{}, len(g.Triples))
	remain := make(map[rdf.ID]int)
	for _, t := range g.Triples {
		base[t] = struct{}{}
		remain[t.P]++
	}
	for _, t := range g.Triples {
		if remain[t.P] > 1 && rng.Intn(100) < 15 {
			dels = append(dels, t)
			remain[t.P]--
		}
	}
	dead := make(map[rdf.Triple]struct{}, len(dels))
	for _, t := range dels {
		dead[t] = struct{}{}
	}
	ids := rdf.ID(g.Dict.Len())
	tryAdd := func(t rdf.Triple) {
		if _, ok := base[t]; ok {
			return
		}
		if _, ok := dead[t]; ok {
			return
		}
		base[t] = struct{}{} // also dedups the adds themselves
		adds = append(adds, t)
	}
	for i := 0; i < len(g.Triples)/6+5; i++ {
		tryAdd(rdf.Triple{
			S: rdf.ID(1 + rng.Int63n(int64(ids))),
			P: cat.AllProps[rng.Intn(len(cat.AllProps))],
			O: rdf.ID(1 + rng.Int63n(int64(ids))),
		})
	}
	// Dictionary growth: a property and subject the base has never seen.
	newProp := g.Dict.InternIRI(fmt.Sprintf("delta-prop-%d", rng.Int63()))
	newSubj := g.Dict.InternIRI(fmt.Sprintf("delta-subj-%d", rng.Int63()))
	for i := 0; i < 4; i++ {
		tryAdd(rdf.Triple{S: newSubj, P: newProp, O: rdf.ID(1 + rng.Int63n(int64(ids)))})
	}
	return adds, dels
}

// drain collects a pull scan, failing the test if it does.
func drain(t *testing.T, it RelIter, w int) *rel.Rel {
	t.Helper()
	out, err := collect(it, w)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return out
}

// TestOverlayScanEquivalence is the physical-layer contract of live
// mutation: every scan of (base + delta) through a DeltaOverlay matches
// the same scan over a from-scratch rebuild of (base ∪ adds ∖ dels) on the
// same dictionary — byte-identical (rows, order and masking) for the
// ordered per-property scans, bag-identical for the unordered whole-table
// scans — for all four schemes, every bound combination, every projection
// mask and every batch size, unbounded included; and Match agrees with a
// linear filter over the merged graph, which shares no code with either.
func TestOverlayScanEquivalence(t *testing.T) {
	masks := []ScanCols{
		AllScanCols(),
		{S: true},
		{O: true},
		{},
		{S: true, P: true},
	}
	for seed := int64(0); seed < 4; seed++ {
		g, cat := randomFixture(t, 300+seed)
		rng := rand.New(rand.NewSource(900 + seed))
		adds, dels := randomEdit(rng, g, cat)
		st := rdf.ComputeStats(g)
		delta, err := NewDelta(cat, st.PropFreq, adds, dels)
		if err != nil {
			t.Fatalf("seed %d: NewDelta: %v", seed, err)
		}
		merged := rdf.ApplyDelta(g, adds, dels)
		if merged.Len() != g.Len()+len(adds)-len(dels) {
			t.Fatalf("seed %d: merged %d triples, want %d", seed, merged.Len(), g.Len()+len(adds)-len(dels))
		}
		mergedCat, err := CatalogFromGraph(merged, cat.Consts, cat.Interesting)
		if err != nil {
			t.Fatalf("seed %d: merged catalog: %v", seed, err)
		}
		if !reflect.DeepEqual(delta.Catalog().AllProps, mergedCat.AllProps) {
			t.Fatalf("seed %d: delta roster %v, rebuilt %v", seed, delta.Catalog().AllProps, mergedCat.AllProps)
		}

		// Scan bounds: unbound, subject of an added triple, object of a
		// deleted triple, both positions of one addition.
		type bound struct{ s, o rdf.ID }
		bounds := []bound{{rdf.NoID, rdf.NoID}}
		if len(adds) > 0 {
			bounds = append(bounds, bound{adds[0].S, rdf.NoID}, bound{adds[0].S, adds[0].O})
		}
		if len(dels) > 0 {
			bounds = append(bounds, bound{rdf.NoID, dels[0].O}, bound{dels[0].S, dels[0].O})
		}
		props := append([]rdf.ID(nil), mergedCat.AllProps...)

		for _, b := range overlayBuilders() {
			baseSrc, err := b.build(g, cat)
			if err != nil {
				t.Fatalf("seed %d %s: base: %v", seed, b.name, err)
			}
			rebuilt, err := b.build(merged, mergedCat)
			if err != nil {
				t.Fatalf("seed %d %s: rebuilt: %v", seed, b.name, err)
			}
			ov := NewDeltaOverlay(baseSrc, delta)
			if ov.PropOrdered() != rebuilt.PropOrdered() || ov.Partitioned() != rebuilt.Partitioned() {
				t.Fatalf("seed %d %s: physical traits diverge", seed, b.name)
			}
			if !reflect.DeepEqual(ov.Props(), rebuilt.Props()) {
				t.Fatalf("seed %d %s: props %v, rebuilt %v", seed, b.name, ov.Props(), rebuilt.Props())
			}
			batches := []int{2, 3, 5, math.MaxInt}
			for _, p := range props {
				for _, bd := range bounds {
					for _, need := range masks {
						var want *rel.Rel
						wIt, werr := rebuilt.StreamProp(p, bd.s, bd.o, need, math.MaxInt)
						if werr == nil {
							want = drain(t, wIt, 2)
						}
						for _, batch := range batches {
							gIt, gerr := ov.StreamProp(p, bd.s, bd.o, need, batch)
							if (werr == nil) != (gerr == nil) {
								t.Fatalf("seed %d %s: StreamProp(%d,%d,%d) err %v vs %v", seed, b.name, p, bd.s, bd.o, gerr, werr)
							}
							if werr != nil {
								continue
							}
							if got := drain(t, gIt, 2); !slices.Equal(got.Data, want.Data) {
								t.Fatalf("seed %d %s: StreamProp(%d,%d,%d,%+v) at batch %d diverges:\n got %v\nwant %v",
									seed, b.name, p, bd.s, bd.o, need, batch, got, want)
							}
						}
					}
				}
			}
			ref := GraphSource{G: merged}
			for _, bd := range bounds {
				for _, need := range masks {
					want := drain(t, rebuilt.StreamTriples(bd.s, bd.o, need, math.MaxInt), 3)
					for _, batch := range batches {
						if got := drain(t, ov.StreamTriples(bd.s, bd.o, need, batch), 3); !rel.Equal(got, want) {
							t.Fatalf("seed %d %s: StreamTriples(%d,%d,%+v) at batch %d: %d rows vs %d",
								seed, b.name, bd.s, bd.o, need, batch, got.Len(), want.Len())
						}
					}
				}
				for _, p := range []rdf.ID{rdf.NoID, props[0], props[len(props)-1]} {
					want := ref.Match(bd.s, p, bd.o)
					for _, src := range []PhysicalSource{ov, rebuilt} {
						if got := src.Match(bd.s, p, bd.o); !rel.Equal(got, want) {
							t.Fatalf("seed %d %s: %T.Match(%d,%d,%d): %d rows, the merged graph holds %d",
								seed, b.name, src, bd.s, p, bd.o, got.Len(), want.Len())
						}
					}
				}
			}
			// Early termination: a partially-consumed stream closes cleanly.
			it, err := ov.StreamProp(props[0], rdf.NoID, rdf.NoID, AllScanCols(), 2)
			if err != nil {
				t.Fatalf("seed %d %s: StreamProp: %v", seed, b.name, err)
			}
			if _, err := it.Next(); err != nil {
				t.Fatalf("seed %d %s: first batch: %v", seed, b.name, err)
			}
			it.Close()
		}
	}
}

// TestOverlayFullyDeletedProperty pins the missing-table semantics: when a
// delta tombstones every triple of a property, the overlay answers its
// ScanProp exactly as a rebuilt scheme would — an error on partitioned
// schemes (no table), an empty scan on the triple stores — and the merged
// roster drops the property.
func TestOverlayFullyDeletedProperty(t *testing.T) {
	g, cat := randomFixture(t, 77)
	// Victim: a non-interesting property, so the catalog stays valid.
	interesting := rel.NewJoinIndex(idsRel(cat.Interesting), 0)
	var victim rdf.ID
	for _, p := range cat.AllProps {
		if interesting.First(uint64(p)) < 0 {
			victim = p
			break
		}
	}
	if victim == rdf.NoID {
		t.Skip("fixture has no non-interesting property")
	}
	var dels []rdf.Triple
	for _, tr := range g.Triples {
		if tr.P == victim {
			dels = append(dels, tr)
		}
	}
	st := rdf.ComputeStats(g)
	delta, err := NewDelta(cat, st.PropFreq, nil, dels)
	if err != nil {
		t.Fatalf("NewDelta: %v", err)
	}
	for _, p := range delta.Catalog().AllProps {
		if p == victim {
			t.Fatalf("victim property %d still in merged roster", victim)
		}
	}
	merged := rdf.ApplyDelta(g, nil, dels)
	mergedCat, err := CatalogFromGraph(merged, cat.Consts, cat.Interesting)
	if err != nil {
		t.Fatalf("merged catalog: %v", err)
	}
	for _, b := range overlayBuilders() {
		baseSrc, err := b.build(g, cat)
		if err != nil {
			t.Fatalf("%s: base: %v", b.name, err)
		}
		rebuilt, err := b.build(merged, mergedCat)
		if err != nil {
			t.Fatalf("%s: rebuilt: %v", b.name, err)
		}
		ov := NewDeltaOverlay(baseSrc, delta)
		want, werr := rebuilt.ScanProp(victim, rdf.NoID, rdf.NoID, AllScanCols())
		got, gerr := ov.ScanProp(victim, rdf.NoID, rdf.NoID, AllScanCols())
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: overlay err %v, rebuilt err %v", b.name, gerr, werr)
		}
		if werr == nil && (got.Len() != 0 || want.Len() != 0) {
			t.Fatalf("%s: fully-deleted property still yields rows (%d overlay, %d rebuilt)", b.name, got.Len(), want.Len())
		}
		if _, serr := ov.StreamProp(victim, rdf.NoID, rdf.NoID, AllScanCols(), 4); (serr == nil) != (werr == nil) {
			t.Fatalf("%s: StreamProp err %v, rebuilt ScanProp err %v", b.name, serr, werr)
		}
	}
}

// TestDeltaRejectsCatalogViolation: deleting every triple of a special
// property must fail Delta construction — the commit is rejected before
// any snapshot is built.
func TestDeltaRejectsCatalogViolation(t *testing.T) {
	g, cat := randomFixture(t, 11)
	var dels []rdf.Triple
	for _, tr := range g.Triples {
		if tr.P == cat.Consts.Point {
			dels = append(dels, tr)
		}
	}
	if len(dels) == 0 {
		t.Fatal("fixture has no Point triples")
	}
	st := rdf.ComputeStats(g)
	if _, err := NewDelta(cat, st.PropFreq, nil, dels); err == nil {
		t.Fatal("NewDelta accepted a delta that drops a special property")
	}
}

// TestOverlayMutationSemantics pins the set semantics of the merge:
// additions surface, tombstones vanish, and the merged triple count is
// exact.
func TestOverlayMutationSemantics(t *testing.T) {
	g, cat := randomFixture(t, 5)
	st := rdf.ComputeStats(g)
	add := rdf.Triple{S: g.Triples[0].S, P: cat.AllProps[0], O: g.Triples[0].S}
	for _, tr := range g.Triples {
		if tr == add {
			t.Skip("random collision with base triple")
		}
	}
	del := g.Triples[len(g.Triples)/2]
	if remainOf(g, del.P) < 2 {
		t.Fatal("fixture property too small")
	}
	delta, err := NewDelta(cat, st.PropFreq, []rdf.Triple{add}, []rdf.Triple{del})
	if err != nil {
		t.Fatalf("NewDelta: %v", err)
	}
	for _, b := range overlayBuilders() {
		baseSrc, err := b.build(g, cat)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		ov := NewDeltaOverlay(baseSrc, delta)
		if r := ov.Match(add.S, add.P, add.O); r.Len() != 1 {
			t.Fatalf("%s: added triple matched %d times", b.name, r.Len())
		}
		if r := ov.Match(del.S, del.P, del.O); r.Len() != 0 {
			t.Fatalf("%s: deleted triple still matched %d times", b.name, r.Len())
		}
		if n, want := ov.Match(rdf.NoID, rdf.NoID, rdf.NoID).Len(), len(g.Triples); n != want {
			t.Fatalf("%s: merged scan %d rows, want %d", b.name, n, want)
		}
	}
}

func remainOf(g *rdf.Graph, p rdf.ID) int {
	n := 0
	for _, tr := range g.Triples {
		if tr.P == p {
			n++
		}
	}
	return n
}

// TestOverlaySubjectBoundScanTouchesOnlyItsAdds: a subject-bound scan of an
// overlay — one probe of an index-probe join — reaches the subject's
// additions by binary search of the property's (s, o)-sorted run, so the
// candidates it walks are exactly the additions that match, however many
// the property holds.
func TestOverlaySubjectBoundScanTouchesOnlyItsAdds(t *testing.T) {
	g, cat := randomFixture(t, 311)
	adds, dels := randomEdit(rand.New(rand.NewSource(911)), g, cat)
	delta, err := NewDelta(cat, rdf.ComputeStats(g).PropFreq, adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	type ps struct{ p, s rdf.ID }
	want := map[ps][]rdf.Triple{}
	perProp := map[rdf.ID]int{}
	for _, a := range delta.Adds() { // PSO-sorted, so each bucket is (s, o)-sorted
		want[ps{a.P, a.S}] = append(want[ps{a.P, a.S}], a)
		perProp[a.P]++
	}
	narrowed := false
	for k, w := range want {
		got := delta.addRun(k.p, k.s)
		if !slices.Equal(got, w) {
			t.Fatalf("addRun(%d, %d) = %v, want %v", k.p, k.s, got, w)
		}
		narrowed = narrowed || len(got) < perProp[k.p]
		if all := delta.addRun(k.p, rdf.NoID); len(all) != perProp[k.p] {
			t.Fatalf("addRun(%d, unbound) holds %d of the property's %d additions", k.p, len(all), perProp[k.p])
		}
	}
	if !narrowed {
		t.Fatal("no property holds additions under two subjects — the test shows nothing")
	}
	// Subjects without additions, below, between and above those with.
	for _, s := range []rdf.ID{1, adds[0].S + 1, rdf.ID(g.Dict.Len()) + 7} {
		for p := range perProp {
			if _, ok := want[ps{p, s}]; !ok && len(delta.addRun(p, s)) != 0 {
				t.Fatalf("addRun(%d, %d) = %v, want nothing", p, s, delta.addRun(p, s))
			}
		}
	}
	if got := delta.addRun(rdf.ID(g.Dict.Len())+9, rdf.NoID); len(got) != 0 {
		t.Fatalf("a property without additions has %v", got)
	}
}
