package bgp_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rel"
)

// TestStreamingGeneratedWorkload is the streaming executor's acceptance bar
// over the grown language: ≥200 generated queries — the mixed serving-shaped
// workload with OPTIONAL, range filters and ORDER BY/LIMIT all enabled —
// must produce byte-identical results (including row order) under the
// streaming and materializing executors on every storage scheme, and the
// materializing reference must in turn match the independent EvalBGP oracle.
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
		var ref *rel.Rel
		for j, name := range f.names {
			want, _, _, err := core.ExecutePlan(f.srcs[name], compiled.Root, core.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %q: materializing: %v", name, q.Text(), err)
			}
			// Rotate a deliberately small batch size through the schemes so
			// batch-boundary logic sees every operator over the corpus.
			opt := core.ExecOptions{Streaming: true}
			if j == checked%len(f.names) {
				opt.BatchRows = 5
			}
			got, _, tr, err := core.ExecutePlan(f.srcs[name], compiled.Root, opt)
			if err != nil {
				t.Fatalf("%s: %q: streaming: %v", name, q.Text(), err)
			}
			if !tr.Streamed {
				t.Fatalf("%s: %q: trace not marked Streamed", name, q.Text())
			}
			if got.W != want.W || fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
				t.Fatalf("%s: %q: streaming result differs from materializing (%d vs %d rows)",
					name, q.Text(), got.Len(), want.Len())
			}
			if ref == nil {
				ref = want
			}
		}
		// The oracle closes the loop: mode-identity alone would be satisfied
		// by two executors wrong in the same way.
		oracle, _, err := bgp.EvalBGP(q, f.srcs[f.names[0]], dict, f.cat.Interesting)
		if err != nil {
			t.Fatalf("oracle %q: %v", q.Text(), err)
		}
		if hasOrder(q) {
			if fmt.Sprint(oracle.Data) != fmt.Sprint(ref.Data) {
				t.Fatalf("%q: ordered result differs from oracle", q.Text())
			}
		} else if !rel.Equal(oracle, ref) {
			t.Fatalf("%q: result differs from oracle (%d vs %d rows)", q.Text(), ref.Len(), oracle.Len())
		}
		if ref.Len() > 0 {
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

// fuzzGens caches one generator per (seed, probabilities) the fuzzer has
// asked for: indexing the graph costs more than running a query.
var (
	fuzzGenMu sync.Mutex
	fuzzGens  = map[[5]byte]*bgp.Generator{}
)

// FuzzStreamDifferential is the open-ended form of the fixed-seed corpora:
// the fuzz bytes pick a generator seed and query index, the probability of
// each language construct, the streaming batch size and the worker count,
// and the generated query must come out the same three ways on all four
// schemes — the EvalBGP oracle, the materializing executor and the streaming
// executor, the last two byte for byte, and all three in row order under
// ORDER BY. Missing bytes read as zero, so every input is a valid case. CI
// fuzzes it under -race, which also poisons every recycled batch buffer
// (core.poisonRecycled). Crashers live in testdata/fuzz/FuzzStreamDifferential.
func FuzzStreamDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 3, 2, 2, 2, 3, 0, 0})      // everything likely, one-row batches
	f.Add([]byte{1, 0, 40, 4, 0, 4, 4, 1, 1})     // OPTIONAL + ORDER BY/LIMIT forced, workers
	f.Add([]byte{2, 1, 9, 0, 4, 0, 0, 2, 1})      // range filters forced, five-row batches
	f.Add([]byte{200, 0, 77, 1, 1, 1, 1, 3, 0})   // defaults-like mix, full batches
	f.Add([]byte{33, 2, 200, 3, 3, 4, 1, 1, 1})   // ordered without limit mostly, two-row batches
	f.Add([]byte{90, 0, 12, 0, 0, 0, 0, 0, 1})    // plain BGPs, one-row batches under workers
	f.Add([]byte{5, 0, 150, 4, 4, 4, 4, 2, 0, 9}) // trailing bytes are ignored
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
		fx := loadFixture(t)
		key := [5]byte{at(0), at(3) % 5, at(4) % 5, at(5) % 5, at(6) % 5}
		fuzzGenMu.Lock()
		gen := fuzzGens[key]
		if gen == nil {
			gen = bgp.NewGenerator(fx.ds.Graph, bgp.GenConfig{
				Seed: int64(at(0)), OptionalProb: prob(3), RangeProb: prob(4), OrderProb: prob(5), LimitProb: prob(6),
			})
			fuzzGens[key] = gen
		}
		fuzzGenMu.Unlock()
		q, _ := gen.Query(int(at(1))<<8 | int(at(2)))
		opt := core.ExecOptions{
			Streaming: true,
			BatchRows: []int{1, 2, 5, 1024}[at(7)%4],
			Workers:   []int{1, 3}[at(8)%2],
		}
		dict := fx.ds.Graph.Dict
		compiled, err := bgp.Compile(q, dict, fx.est)
		if err != nil {
			t.Fatalf("compile %q: %v", q.Text(), err)
		}
		oracle, _, err := bgp.EvalBGP(q, fx.srcs[fx.names[0]], dict, fx.cat.Interesting)
		if err != nil {
			t.Fatalf("oracle %q: %v", q.Text(), err)
		}
		for _, name := range fx.names {
			want, _, _, err := core.ExecutePlan(fx.srcs[name], compiled.Root, core.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %q: materializing: %v", name, q.Text(), err)
			}
			got, _, _, err := core.ExecutePlan(fx.srcs[name], compiled.Root, opt)
			if err != nil {
				t.Fatalf("%s: %q: streaming %+v: %v", name, q.Text(), opt, err)
			}
			if got.W != want.W || !slices.Equal(got.Data, want.Data) {
				t.Fatalf("%s: %q: streaming %+v differs from materializing (%d vs %d rows)",
					name, q.Text(), opt, got.Len(), want.Len())
			}
			if hasOrder(q) {
				if want.W != oracle.W || !slices.Equal(want.Data, oracle.Data) {
					t.Fatalf("%s: %q: ordered result differs from the oracle", name, q.Text())
				}
			} else if !rel.Equal(want, oracle) {
				t.Fatalf("%s: %q: result differs from the oracle (%d vs %d rows)", name, q.Text(), want.Len(), oracle.Len())
			}
		}
	})
}
