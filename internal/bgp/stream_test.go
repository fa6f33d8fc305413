package bgp_test

import (
	"fmt"
	"sync"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
)

// TestStreamingGeneratedWorkload is the executor's acceptance bar over the
// grown language: ≥200 generated queries — the mixed serving-shaped workload
// with OPTIONAL, range filters and ORDER BY/LIMIT all enabled — must come
// out as the independent EvalBGP oracle says on every storage scheme in
// every configuration, byte-identical (row order included) across the
// configurations of a scheme.
func TestStreamingGeneratedWorkload(t *testing.T) {
	f := loadFixture(t)
	dict := f.ds.Graph.Dict
	gen := bgp.NewGenerator(f.ds.Graph, bgp.GenConfig{
		Seed: 707, OptionalProb: 0.4, RangeProb: 0.4, OrderProb: 0.4, LimitProb: 0.5,
	})
	const corpus = 200
	checked, nonEmpty := 0, 0
	construct := map[string]int{}
	for i := 0; checked < corpus && i < 8192; i++ {
		q, _ := gen.Query(i)
		compiled, err := bgp.Compile(q, dict, f.est)
		if err != nil {
			t.Fatalf("compile %q: %v", q.Text(), err)
		}
		if hasOptional(q) {
			construct["optional"]++
		}
		if hasRange(q) {
			construct["range"]++
		}
		if hasOrder(q) {
			construct["order"]++
			if q.Limit != nil {
				construct["limit"]++
			}
		}
		oracle, _, err := bgp.EvalBGP(q, core.GraphSource{G: f.ds.Graph}, dict, f.cat.Interesting)
		if err != nil {
			t.Fatalf("oracle %q: %v", q.Text(), err)
		}
		for _, license := range []string{"as compiled", fmt.Sprintf("ProbeMax %d", probeBounds[i%4])} {
			for _, name := range f.names {
				checkConfigs(t, fmt.Sprintf("%s, %s: %q", name, license, q.Text()), f.srcs[name], compiled.Root, configs, oracle, hasOrder(q))
			}
			setProbeMax(compiled.Root, probeBounds[i%4])
		}
		if oracle.Len() > 0 {
			nonEmpty++
		}
		checked++
	}
	if checked < corpus {
		t.Fatalf("only %d/%d queries generated", checked, corpus)
	}
	if nonEmpty == 0 {
		t.Error("every query returned empty — vacuous corpus")
	}
	for _, c := range []string{"optional", "range", "order", "limit"} {
		if construct[c] < 20 {
			t.Errorf("construct %s appeared in only %d/%d queries — corpus does not exercise it", c, construct[c], checked)
		}
	}
	t.Logf("streaming workload: %d checked, %d non-empty, constructs %v", checked, nonEmpty, construct)
}

// fuzzGens caches one generator per (fixture, seed, probabilities) the
// fuzzer has asked for: indexing the graph costs more than running a query.
var (
	fuzzGenMu sync.Mutex
	fuzzGens  = map[[6]byte]*bgp.Generator{}
)

// FuzzStreamDifferential is the open-ended form of the fixed-seed corpora:
// the fuzz bytes pick a generator seed, a query index, the probability of
// each language construct, a pipelined batch size, the license written onto
// every join (as compiled, or one of probeBounds) and the data — the base
// fixture, or the overlay fixture's delta served both as overlays and as
// rebuilds. The generated query must come out as the EvalBGP oracle says —
// in row order under ORDER BY — on all four schemes, drained and pipelined
// at that batch size, byte for byte between the two, and on the overlay
// fixture byte for byte between an overlay and its rebuild wherever a
// contract pins the order. The fuzzer explores the batch size and the
// license with everything else (the seeds below cover 1, 2, 5 and 1024 rows
// and every license); the fixed corpora run every configuration and every
// license on every query. Missing bytes read as zero, so every input is a
// valid case. CI fuzzes it under -race, which also poisons every recycled
// batch buffer (core.poisonRecycled). Crashers live in
// testdata/fuzz/FuzzStreamDifferential.
func FuzzStreamDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 3, 2, 2, 2, 3, 0, 0})         // everything likely, one-row batches
	f.Add([]byte{1, 0, 40, 4, 0, 4, 4, 1, 1})        // OPTIONAL + ORDER BY/LIMIT forced, two-row batches, never probe
	f.Add([]byte{2, 1, 9, 0, 4, 0, 0, 2, 1})         // range filters forced, five-row batches
	f.Add([]byte{200, 0, 77, 1, 1, 1, 1, 3, 0})      // defaults-like mix, full batches
	f.Add([]byte{33, 2, 200, 3, 3, 4, 1, 1, 1})      // ordered without limit mostly, two-row batches
	f.Add([]byte{90, 0, 12, 0, 0, 0, 0, 0, 1})       // plain BGPs, one-row batches
	f.Add([]byte{5, 0, 150, 4, 4, 4, 4, 2, 0, 0, 9}) // bytes past the tenth are ignored
	f.Add([]byte{90, 0, 12, 0, 0, 0, 0, 0, 4})       // plain BGPs, one-row batches, always probe
	f.Add([]byte{90, 0, 31, 0, 0, 0, 0, 1, 2, 1})    // probe behind one row, overlay = rebuild, two-row batches
	f.Add([]byte{7, 0, 3, 2, 2, 2, 3, 2, 3, 1})      // everything likely, probe behind three rows, overlay = rebuild
	f.Add([]byte{200, 0, 77, 1, 1, 1, 1, 3, 4, 1})   // defaults-like mix, always probe, overlay = rebuild, full batches
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		// 0 → off, 1..4 → 0.25..1: the generator's own zero means "default".
		prob := func(i int) float64 {
			if p := at(i) % 5; p > 0 {
				return float64(p) / 4
			}
			return -1
		}
		var fx *fixture
		var ov *overlayFixture
		graph, est, interesting := (*rdf.Graph)(nil), (*bgp.Estimator)(nil), []rdf.ID(nil)
		if at(9)%2 == 0 {
			fx = loadFixture(t)
			graph, est, interesting = fx.ds.Graph, fx.est, fx.cat.Interesting
		} else {
			ov = loadOverlayFixture(t)
			graph, est, interesting = ov.merged, ov.est, ov.cat.Interesting
		}
		key := [6]byte{at(9) % 2, at(0), at(3) % 5, at(4) % 5, at(5) % 5, at(6) % 5}
		fuzzGenMu.Lock()
		gen := fuzzGens[key]
		if gen == nil {
			gen = bgp.NewGenerator(graph, bgp.GenConfig{
				Seed: int64(at(0)), OptionalProb: prob(3), RangeProb: prob(4), OrderProb: prob(5), LimitProb: prob(6),
			})
			fuzzGens[key] = gen
		}
		fuzzGenMu.Unlock()
		q, _ := gen.Query(int(at(1))<<8 | int(at(2)))
		cfgs := []core.ExecOptions{{}, {Streaming: true, BatchRows: []int{1, 2, 5, 1024}[at(7)%4]}}
		compiled, err := bgp.Compile(q, graph.Dict, est)
		if err != nil {
			t.Fatalf("compile %q: %v", q.Text(), err)
		}
		what := "as compiled"
		if b := int(at(8) % 5); b > 0 {
			setProbeMax(compiled.Root, probeBounds[b-1])
			what = fmt.Sprintf("ProbeMax %d", probeBounds[b-1])
		}
		what = fmt.Sprintf("%s: %q", what, q.Text())
		oracle, _, err := bgp.EvalBGP(q, core.GraphSource{G: graph}, graph.Dict, interesting)
		if err != nil {
			t.Fatalf("oracle %q: %v", q.Text(), err)
		}
		if ov != nil {
			for _, name := range ov.names {
				checkOverlayVsRebuild(t, ov, name, what, compiled.Root, cfgs, oracle, hasOrder(q), hasOrder(q) || !hasUnboundProp(q))
			}
			return
		}
		for _, name := range fx.names {
			checkConfigs(t, name+", "+what, fx.srcs[name], compiled.Root, cfgs, oracle, hasOrder(q))
		}
	})
}
