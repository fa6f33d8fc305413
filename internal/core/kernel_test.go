package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

// The executor's kernels, layer by layer: one benchmark per hash or copy
// loop, each running the real operator over in-memory inputs (memoized
// leaves, so no engine and no charges) and reporting ns per input row next
// to B/op. Run with go test ./internal/core -run '^$' -bench Kernel. The
// tests hold the group and distinct operators to map-plus-sort references
// over a source that recycles — and, in this package's tests and under
// -race, poisons — its one batch buffer, so a kept row that aliases a batch
// fails.

// nopOps prices every operator at zero: the kernels' host time alone.
var nopOps = PhysicalOps{Store: simio.NewStore(simio.Config{}), Rates: &simio.Rates{}}

// leaf is a plan access standing for an in-memory input with the given
// columns (the property constant only tells leaves apart).
func leaf(p uint64, cols ...string) *Access {
	refs := [3]TermRef{C(1), C(rdf.ID(p)), C(1)}
	for i, c := range cols {
		refs[[]int{0, 2}[i]] = V(c)
	}
	return &Access{Pattern: Pat(refs[0], refs[1], refs[2])}
}

// runKernel lowers root over leaves in the pipelined configuration and
// drains it, b.N times.
func runKernel(b *testing.B, root Node, leaves map[Node]shared, rows int) {
	p, err := NewPlan(root)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		st := &streamer{ctx: context.Background(), ops: nopOps, facts: p.facts, tr: &Trace{}, memo: maps.Clone(leaves),
			mem: &memTracker{}, batch: DefaultBatchRows}
		s, err := st.build(root)
		if err != nil {
			b.Fatal(err)
		}
		for {
			out, err := s.it.next()
			if err != nil {
				b.Fatal(err)
			}
			if out == nil {
				break
			}
		}
		s.it.close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// randRel returns n rows of width w, column c drawn by col(c).
func randRel(n, w int, col func(c int) uint64) *rel.Rel {
	r := rel.NewCap(w, n)
	for i := 0; i < n*w; i++ {
		r.Data = append(r.Data, col(i%w))
	}
	return r
}

// benchJoin probes 256k (subject, property) rows against 16k subjects
// spread over 100k identifiers, as q2's type join does; hit draws the probe
// subjects from the build side, miss from the identifiers between them.
func benchJoin(b *testing.B, hit bool) {
	rng := rand.New(rand.NewSource(1))
	ids := rng.Perm(100_000)
	keys, others := ids[:16_384], ids[16_384:]
	build := randRel(len(keys), 1, func(int) uint64 { return 0 })
	for i, k := range keys {
		build.Data[i] = uint64(k)
	}
	probe := randRel(1<<18, 2, func(c int) uint64 {
		switch {
		case c == 1:
			return uint64(rng.Intn(222))
		case hit:
			return uint64(keys[rng.Intn(len(keys))])
		}
		return uint64(others[rng.Intn(len(others))])
	})
	l, r := leaf(1, "s"), leaf(2, "s", "p")
	root := &Join{L: l, R: r}
	runKernel(b, root, map[Node]shared{l: {rel: build, cols: []string{"s"}}, r: {rel: probe, cols: []string{"s", "p"}}}, probe.Len())
}

func BenchmarkKernelJoinProbeHit(b *testing.B)  { benchJoin(b, true) }
func BenchmarkKernelJoinProbeMiss(b *testing.B) { benchJoin(b, false) }

// BenchmarkKernelGroup counts 64k (property, object) rows into ~40k groups,
// the shape of q5's and q3's grouping.
func BenchmarkKernelGroup(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := randRel(1<<16, 2, func(c int) uint64 { return uint64(rng.Intn([]int{64, 1000}[c])) + 5000 })
	l := leaf(1, "p", "o")
	root := &Group{In: l, Keys: []string{"p", "o"}}
	runKernel(b, root, map[Node]shared{l: {rel: in, cols: []string{"p", "o"}}}, in.Len())
}

// BenchmarkKernelDistinct keeps the first of 64k width-2 rows, half of them
// repeats.
func BenchmarkKernelDistinct(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := randRel(1<<16, 2, func(c int) uint64 { return uint64(rng.Intn([]int{128, 256}[c])) })
	l := leaf(1, "s", "o")
	root := &Distinct{In: l}
	runKernel(b, root, map[Node]shared{l: {rel: in, cols: []string{"s", "o"}}}, in.Len())
}

// BenchmarkKernelGather projects 256k width-2 rows to (o, s): one strided
// copy per output column.
func BenchmarkKernelGather(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := randRel(1<<18, 2, func(int) uint64 { return rng.Uint64() })
	l := leaf(1, "s", "o")
	root := &Project{In: l, Cols: []string{"o", "s"}}
	runKernel(b, root, map[Node]shared{l: {rel: in, cols: []string{"s", "o"}}}, in.Len())
}

// recycledIter hands src on in batches of n rows, all in one buffer it
// empties (poisoning it, when poisonRecycled) before every refill.
type recycledIter struct {
	src *rel.Rel
	n   int
	at  int
	buf rel.Rel
}

func (r *recycledIter) next() (*rel.Rel, error) {
	reuse(&r.buf)
	if r.at >= r.src.Len() {
		return nil, nil
	}
	hi := min(r.at+r.n, r.src.Len())
	r.buf.W, r.buf.Data = r.src.W, append(r.buf.Data, r.src.Data[r.at*r.src.W:hi*r.src.W]...)
	r.at = hi
	return &r.buf, nil
}

func (r *recycledIter) close() { r.at = r.src.Len() }

// operatorInput draws n width-w rows: duplicates dominate when dom is small,
// and a quarter of the words are 0, 2³², 2⁶³ or the top where wide is set.
func operatorInput(rng *rand.Rand, n, w int, dom uint64, wide bool) *rel.Rel {
	edge := []uint64{0, 1 << 32, 1 << 63, math.MaxUint64}
	return randRel(n, w, func(int) uint64 {
		if wide && rng.Intn(4) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return rng.Uint64() % dom
	})
}

// TestKernelOperatorsMatchReference runs the group operator on one and two
// key words and the distinct operator on widths 1–4 over recycled batches of
// 1, 3 and 1024 rows, against a map of counts then sort, and a map of first
// occurrences in input order.
func TestKernelOperatorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 31, 33, 1500, 5000} {
		for _, batch := range []int{1, 3, 1024} {
			for _, wide := range []bool{false, true} {
				dom := uint64(1 + rng.Intn(2*n+2))
				st := &streamer{ctx: context.Background(), ops: nopOps, tr: &Trace{}, mem: &memTracker{}, batch: batch}
				label := fmt.Sprintf("n=%d batch=%d wide=%v", n, batch, wide)

				in := operatorInput(rng, n, 3, dom, wide)
				for _, keys := range [][]int{{2}, {2, 0}} {
					counts := map[[2]uint64]uint64{}
					for i := 0; i < n; i++ {
						var k [2]uint64
						for j, c := range keys {
							k[j] = in.Row(i)[c]
						}
						counts[k]++
					}
					want := rel.New(len(keys) + 1)
					for k, c := range counts {
						want.Data = append(append(want.Data, k[:len(keys)]...), c)
					}
					want.Sort()
					got, err := st.drain(&groupIter{st: st, in: &recycledIter{src: in, n: batch}, keys: keys, w: 3}, len(keys)+1, false)
					if err != nil || !slices.Equal(got.Data, want.Data) {
						t.Fatalf("group %s keys %v: rows differ from the reference (err %v)", label, keys, err)
					}
				}

				for w := 1; w <= 4; w++ {
					in := operatorInput(rng, n, w, dom, wide)
					seen := map[[4]uint64]bool{}
					var want []uint64
					for i := 0; i < n; i++ {
						var k [4]uint64
						copy(k[:], in.Row(i))
						if !seen[k] {
							seen[k] = true
							want = append(want, in.Row(i)...)
						}
					}
					got, err := st.drain(&distinctIter{st: st, in: &recycledIter{src: in, n: batch}, w: w, seen: rel.NewTable(w, w)}, w, false)
					if err != nil || !slices.Equal(got.Data, want) {
						t.Fatalf("distinct %s w=%d: rows differ from the reference (err %v)", label, w, err)
					}
				}
			}
		}
	}
}
