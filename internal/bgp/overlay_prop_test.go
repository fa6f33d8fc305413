package bgp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// This file holds the live-mutation analogue of the sparql property
// harness: a base data set plus a seeded random delta, served two ways —
// the four base schemes wrapped in a DeltaOverlay, and the four schemes
// rebuilt from scratch over the folded graph (same dictionary). For ≥200
// generated full-language queries per scheme, overlay and rebuild must both
// agree with the bgp.EvalBGP oracle in every executor configuration, and
// the overlay must be byte-identical to the rebuild. The acceptance bar
// of delta ingest: an overlaid snapshot is indistinguishable from one
// built by reloading.

// overlayFixture is the doubled data set: overlay sources and rebuilt
// sources share one dictionary (append-only growth — the delta interned
// new terms into it), so a plan compiled once runs on both sides.
type overlayFixture struct {
	merged *rdf.Graph
	cat    core.Catalog
	est    *bgp.Estimator
	names  []string
	over   map[string]core.PhysicalSource
	built  map[string]core.PhysicalSource
	adds   int
	dels   int
}

var (
	ovOnce sync.Once
	ovFx   *overlayFixture
	ovErr  error
)

func loadOverlayFixture(t *testing.T) *overlayFixture {
	t.Helper()
	ovOnce.Do(func() {
		ovFx, ovErr = buildOverlayFixture()
	})
	if ovErr != nil {
		t.Fatalf("overlay fixture: %v", ovErr)
	}
	return ovFx
}

func buildOverlayFixture() (*overlayFixture, error) {
	ds, err := datagen.Generate(datagen.Config{
		Triples: 12_000, Properties: 32, Interesting: 20, Seed: 17,
	})
	if err != nil {
		return nil, err
	}
	baseCat, err := catalogOf(ds)
	if err != nil {
		return nil, err
	}
	baseSrcs, names, err := loadSchemes(ds.Graph, baseCat)
	if err != nil {
		return nil, err
	}
	// The edit set must be drawn before the stats: NewDelta checks the
	// invariants (adds ∩ base = ∅, dels ⊆ base) against the frequencies of
	// the unedited base.
	st := rdf.ComputeStats(ds.Graph)
	rng := rand.New(rand.NewSource(99))
	adds, dels := overlayEdit(rng, ds.Graph, baseCat)
	delta, err := core.NewDelta(baseCat, st.PropFreq, adds, dels)
	if err != nil {
		return nil, err
	}
	over := make(map[string]core.PhysicalSource, len(baseSrcs))
	for name, src := range baseSrcs {
		over[name] = core.NewDeltaOverlay(src, delta)
	}
	merged := rdf.ApplyDelta(ds.Graph, adds, dels)
	mergedCat, err := core.CatalogFromGraph(merged, constsOf(ds), ds.Interesting)
	if err != nil {
		return nil, err
	}
	built, _, err := loadSchemes(merged, mergedCat)
	if err != nil {
		return nil, err
	}
	return &overlayFixture{
		merged: merged,
		cat:    mergedCat,
		est:    bgp.NewEstimator(merged, mergedCat.Interesting),
		names:  names,
		over:   over,
		built:  built,
		adds:   len(adds),
		dels:   len(dels),
	}, nil
}

// overlayEdit draws a seeded random edit set: deletions spread over every
// property (never emptying one — a fully-deleted property errors on the
// partitioned schemes, a separate contract pinned in core's overlay
// tests), recombined additions over the existing vocabulary, and
// dictionary-growing additions under brand-new subjects, a new property,
// and new literals — the append-only growth a live INSERT stream causes.
func overlayEdit(rng *rand.Rand, g *rdf.Graph, cat core.Catalog) (adds, dels []rdf.Triple) {
	base := make(map[rdf.Triple]struct{}, len(g.Triples))
	remain := make(map[rdf.ID]int)
	for _, t := range g.Triples {
		base[t] = struct{}{}
		remain[t.P]++
	}
	for _, t := range g.Triples {
		if remain[t.P] > 1 && rng.Intn(100) < 10 {
			dels = append(dels, t)
			remain[t.P]--
		}
	}
	dead := make(map[rdf.Triple]struct{}, len(dels))
	for _, t := range dels {
		dead[t] = struct{}{}
	}
	ids := int64(g.Dict.Len())
	tryAdd := func(t rdf.Triple) {
		if _, ok := base[t]; ok {
			return
		}
		if _, ok := dead[t]; ok {
			return
		}
		base[t] = struct{}{} // dedups the adds themselves too
		adds = append(adds, t)
	}
	// Recombinations: existing subjects and objects under existing
	// properties — the adds that interleave with base runs mid-scan.
	for i := 0; i < len(g.Triples)/8+8; i++ {
		tryAdd(rdf.Triple{
			S: rdf.ID(1 + rng.Int63n(ids)),
			P: cat.AllProps[rng.Intn(len(cat.AllProps))],
			O: rdf.ID(1 + rng.Int63n(ids)),
		})
	}
	// Dictionary growth: fresh subjects and literal objects, plus one
	// property the base never saw.
	newProp := g.Dict.InternIRI("ov/prop/new")
	for i := 0; i < 24; i++ {
		s := g.Dict.InternIRI(fmt.Sprintf("ov/subj/%d", i))
		tryAdd(rdf.Triple{S: s, P: cat.AllProps[rng.Intn(len(cat.AllProps))],
			O: g.Dict.InternLiteral(fmt.Sprintf("ov-lit-%d", i))})
		if i%3 == 0 {
			tryAdd(rdf.Triple{S: s, P: newProp, O: rdf.ID(1 + rng.Int63n(ids))})
		}
	}
	return adds, dels
}

// hasUnboundProp reports whether any pattern (required or OPTIONAL)
// leaves its property position unbound. Those compile to the
// unbound-property scan, whose row order is outside every scheme's
// contract (RowTriple documents PropOrdered false; the overlay appends
// additions after the base), so overlay-vs-rebuild can only be compared
// as bags there unless ORDER BY pins the order.
func hasUnboundProp(q *bgp.Query) bool {
	check := func(p bgp.Pattern) bool { return p.P.IsVar() }
	for _, e := range q.Where {
		switch x := e.(type) {
		case bgp.Pattern:
			if check(x) {
				return true
			}
		case *bgp.Optional:
			for _, oe := range x.Where {
				if p, ok := oe.(bgp.Pattern); ok && check(p) {
					return true
				}
			}
		}
	}
	return false
}

// TestPropertyOverlayMatchesRebuild is the byte-identity property: ≥200
// generated full-language queries (the generator's default mixture —
// stars, chains, snowflakes, OPTIONAL, range FILTER, ORDER BY/LIMIT,
// DISTINCT) come out as the independent oracle says on overlay and rebuilt
// sources for every scheme in every executor configuration (the small
// batches cross delta run boundaries), and byte-identical between overlay
// and rebuild. The one carve-out:
// an unordered query with an unbound-property pattern compares as a bag,
// because the unbound-property scan's row order is contractless on the
// base schemes themselves.
func TestPropertyOverlayMatchesRebuild(t *testing.T) {
	f := loadOverlayFixture(t)
	t.Logf("delta: %d adds, %d dels over %d merged triples", f.adds, f.dels, len(f.merged.Triples))
	gen := bgp.NewGenerator(f.merged, bgp.GenConfig{Seed: 505})
	const corpus = 200
	nonEmpty, exact := 0, 0
	for i := 0; i < corpus; i++ {
		q, _ := gen.Query(i)
		compiled, err := bgp.Compile(q, f.merged.Dict, f.est)
		if err != nil {
			t.Fatalf("compile %q: %v", q.Text(), err)
		}
		ordered := len(q.OrderBy) > 0
		byteExact := ordered || !hasUnboundProp(q)
		if byteExact {
			exact++
		}
		oracle, _, err := bgp.EvalBGP(q, core.GraphSource{G: f.merged}, f.merged.Dict, f.cat.Interesting)
		if err != nil {
			t.Fatalf("oracle %q: %v", q.Text(), err)
		}
		for _, license := range []string{"as compiled", fmt.Sprintf("ProbeMax %d", probeBounds[i%4])} {
			for _, name := range f.names {
				checkOverlayVsRebuild(t, f, name, license+": "+q.Text(), compiled.Root, configs, oracle, ordered, byteExact)
			}
			setProbeMax(compiled.Root, probeBounds[i%4])
		}
		if oracle.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("every query returned empty — the property is vacuous")
	}
	if exact < corpus/2 {
		t.Errorf("only %d/%d queries compared byte-exactly — the identity property is diluted", exact, corpus)
	}
	t.Logf("overlay parity: %d checked, %d non-empty, %d byte-exact", corpus, nonEmpty, exact)
}

// checkOverlayVsRebuild holds one scheme's overlay and rebuild to the oracle
// in the given configurations, and to each other. The per-scheme comparison
// is exact whenever some contract pins the order: ORDER BY sorts the output,
// and a query whose properties are all bound only runs StreamProp, whose
// (s, o) order the overlay merge preserves and whose joins an overlay lowers
// as its rebuild does (PropSeekable delegates to the base) — so the
// deterministic executor must produce the identical byte sequence, not
// merely the same bag (which agreeing with the oracle already showed).
func checkOverlayVsRebuild(t *testing.T, f *overlayFixture, name, what string, root core.Node, cfgs []core.ExecOptions, oracle *rel.Rel, ordered, byteExact bool) {
	t.Helper()
	want := checkConfigs(t, fmt.Sprintf("rebuilt %s, %s", name, what), f.built[name], root, cfgs, oracle, ordered)
	got := checkConfigs(t, fmt.Sprintf("overlay %s, %s", name, what), f.over[name], root, cfgs, oracle, ordered)
	if byteExact && (got.W != want.W || !slices.Equal(got.Data, want.Data)) {
		t.Fatalf("%s, %s: overlay result differs from rebuild (%d vs %d rows)", name, what, got.Len(), want.Len())
	}
}

// TestPropertyOverlayTouchesDelta guards the corpus against vacuity from
// the other side: the merged graph the queries are generated over must
// actually differ from the base everywhere the delta says it does — some
// generated queries must return rows that exist only because of the delta.
// A direct probe of the new property suffices: it has no base run at all,
// so any row it returns took the overlay's add-only path.
func TestPropertyOverlayTouchesDelta(t *testing.T) {
	f := loadOverlayFixture(t)
	q := bgp.MustParse(`SELECT ?s ?o WHERE { ?s <ov/prop/new> ?o }`)
	compiled, err := bgp.Compile(q, f.merged.Dict, f.est)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range f.names {
		for _, opts := range configs {
			got, _, _, err := core.ExecutePlan(f.over[name], compiled.Root, opts)
			if err != nil {
				t.Fatalf("overlay %s: %v", name, err)
			}
			want, _, _, err := core.ExecutePlan(f.built[name], compiled.Root, opts)
			if err != nil {
				t.Fatalf("rebuilt %s: %v", name, err)
			}
			if got.Len() == 0 {
				t.Fatalf("%s: the delta-only property returned no rows", name)
			}
			if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
				t.Fatalf("%s: delta-only property differs from rebuild", name)
			}
		}
	}
}
