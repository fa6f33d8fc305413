package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// This file tests the index-probe join (stream.go, probeIter) case by case
// against the join it replaces: the same plan with the license withdrawn
// (ProbeMax 0), whose results the oracles elsewhere pin.

// probeFixture is the crafted graph plus what the probe's corner cases need:
// self-loops for the repeated variable, and a second title on s1 so an outer
// carries every subject twice.
func probeFixture(t *testing.T) (map[string]uint64, map[string]PhysicalSource) {
	t.Helper()
	fx := newCrafted(t)
	iri := rdf.NewIRI
	fx.g.Add(iri("s3"), iri("records"), iri("s3"))
	fx.g.Add(iri("s4"), iri("records"), iri("s4"))
	fx.g.Add(iri("s1"), iri("title"), rdf.NewLiteral("B"))
	fx.g.Normalize()
	cat, err := CatalogFromGraph(fx.g, fx.cat.Consts, fx.cat.Interesting)
	if err != nil {
		t.Fatal(err)
	}
	return fx.ids, loadFour(t, fx.g, cat)
}

// seekable lists the schemes whose licensed joins probe.
var seekable = []string{"rowtriple", "rowvert", "colvert"}

// probeCase runs mk(max) on every scheme in every configuration. Each run
// must return the bag of the unlicensed plan mk(0), byte-identical across
// the configurations of a scheme; the joins of the seekable schemes must
// have been lowered to want, and the column triple-store must never probe.
// It returns each scheme's drain-configuration result.
func probeCase(t *testing.T, srcs map[string]PhysicalSource, mk func(max int) Node, max int, want ...JoinStrategy) map[string]*rel.Rel {
	t.Helper()
	out := map[string]*rel.Rel{}
	for name, src := range srcs {
		ref, _, _, err := ExecutePlan(src, mk(0), ExecOptions{})
		if err != nil {
			t.Fatalf("%s unlicensed: %v", name, err)
		}
		for _, opt := range configs {
			got, _, tr, err := ExecutePlan(src, mk(max), opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opt, err)
			}
			if !rel.Equal(got, ref) {
				t.Fatalf("%s %+v: licensed plan returned %v, unlicensed %v", name, opt, got, ref)
			}
			if first := out[name]; first == nil {
				out[name] = got
			} else if !slices.Equal(got.Data, first.Data) {
				t.Fatalf("%s %+v: rows %v, drained %v", name, opt, got, first)
			}
			if slices.Contains(seekable, name) {
				checkStrategies(t, fmt.Sprintf("%s %+v", name, opt), tr, want)
			} else {
				for _, j := range tr.Joins {
					if j.Strategy == JoinIndexProbe {
						t.Errorf("%s probed", name)
					}
				}
			}
		}
	}
	return out
}

func TestProbeEmptyOuter(t *testing.T) {
	ids, srcs := probeFixture(t)
	id := func(k string) TermRef { return C(rdf.ID(ids[k])) }
	mk := func(max int) Node {
		return &Join{
			L:        &Access{Pattern: Pat(V("s"), id("origin"), id("Text"))}, // matches nothing
			R:        &Access{Pattern: Pat(V("s"), id("type"), V("t"))},
			ProbeMax: max,
		}
	}
	for name, got := range probeCase(t, srcs, mk, 4, JoinIndexProbe) {
		if got.Len() != 0 {
			t.Errorf("%s: %v from an empty outer", name, got)
		}
	}
	// Nothing to seek for: the sibling is never opened.
	for _, name := range seekable {
		_, _, tr, err := ExecutePlan(srcs[name], mk(4), ExecOptions{Streaming: true})
		if err != nil {
			t.Fatal(err)
		}
		if tr.SourceBatches != 0 {
			t.Errorf("%s: %d source batches behind an empty outer", name, tr.SourceBatches)
		}
	}
}

// TestProbeDuplicateKeysAndFallback: an outer carrying each subject twice
// probes once per subject, and comes out outer-major; the same outer one row
// above the bound takes the scanning join, with the unlicensed plan's
// strategy, row order, charges and peak.
func TestProbeDuplicateKeysAndFallback(t *testing.T) {
	ids, srcs := probeFixture(t)
	id := func(k string) TermRef { return C(rdf.ID(ids[k])) }
	outer := func() *Access { return &Access{Pattern: Pat(V("s"), id("title"), V("x"))} } // s1 A, s1 B, s2 A, s2 B
	mk := func(max int) Node {
		return &Join{L: outer(), R: &Access{Pattern: Pat(V("s"), id("type"), V("t"))}, ProbeMax: max}
	}
	for name, got := range probeCase(t, srcs, mk, 4, JoinIndexProbe) {
		if !slices.Contains(seekable, name) {
			continue
		}
		o, _, _, err := ExecutePlan(srcs[name], outer(), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 4 || o.Len() != 4 {
			t.Fatalf("%s: %d rows from %d outer rows, want 4 from 4", name, got.Len(), o.Len())
		}
		for i := 0; i < 4; i++ {
			if row := got.Row(i); !slices.Equal(row[:2], o.Row(i)) || row[2] != ids["Text"] {
				t.Errorf("%s row %d: %v, outer row %v", name, i, row, o.Row(i))
			}
		}
		// EXPLAIN ANALYZE tells the truth about the sibling: two probes (four
		// outer rows, two subjects) returned two rows, under a join that says
		// how it ran.
		_, _, tr, err := ExecutePlan(srcs[name], mk(4), ExecOptions{Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		if j := tr.Profile; j.Note != string(JoinIndexProbe) || len(j.Children) != 2 {
			t.Fatalf("%s: join profiled as %q with %d children", name, j.Note, len(j.Children))
		}
		if acc := tr.Profile.Children[1]; acc.Node.(*Access).Pattern.P.Const != rdf.ID(ids["type"]) || acc.Rows != 2 || acc.Batches != 2 || len(acc.Children) != 0 {
			t.Errorf("%s: probed access profiled rows=%d batches=%d, want 2 and 2", name, acc.Rows, acc.Batches)
		}
	}

	for _, name := range seekable {
		src := srcs[name]
		store := src.Ops().Store
		run := func(max int, opt ExecOptions) (*rel.Rel, *Trace, int64) {
			c0, _, _ := store.Charges()
			got, _, tr, err := ExecutePlan(src, mk(max), opt)
			if err != nil {
				t.Fatal(err)
			}
			c1, _, _ := store.Charges()
			return got, tr, c1 - c0
		}
		for _, opt := range configs {
			want, wtr, wcpu := run(0, opt)
			got, gtr, gcpu := run(3, opt)
			if !slices.Equal(got.Data, want.Data) {
				t.Errorf("%s %+v: fallback rows %v, unlicensed %v", name, opt, got, want)
			}
			// The store reads a rounded running total, so two equal sums of
			// charges can differ by a nanosecond. The rows read before the
			// choice — at most the bound, none when the first batch outgrows
			// it, as every drained one does — are held until replayed.
			slack := int64(0)
			if opt.Streaming {
				slack = 3 * 2 * 8
			}
			if gtr.Joins[0] != wtr.Joins[0] || gcpu-wcpu < -1 || gcpu-wcpu > 1 ||
				gtr.PeakBytes < wtr.PeakBytes || gtr.PeakBytes > wtr.PeakBytes+slack {
				t.Errorf("%s %+v: fallback %v cpu=%d peak=%d, unlicensed %v cpu=%d peak=%d",
					name, opt, gtr.Joins, gcpu, gtr.PeakBytes, wtr.Joins, wcpu, wtr.PeakBytes)
			}
		}
	}
}

// TestProbeShapes: a sibling whose object is bound too (an existence probe:
// no new column), a repeated variable (the probe's rows still pass the
// access's equality filter), and the access as the left input (its columns
// lead, the rows still come outer-major).
func TestProbeShapes(t *testing.T) {
	ids, srcs := probeFixture(t)
	id := func(k string) TermRef { return C(rdf.ID(ids[k])) }
	titles := func() *Access { return &Access{Pattern: Pat(V("s"), id("title"), V("x"))} }

	for name, got := range probeCase(t, srcs, func(max int) Node {
		return &Join{L: titles(), R: &Access{Pattern: Pat(V("s"), id("language"), id("fre"))}, ProbeMax: max}
	}, 4, JoinIndexProbe) {
		if got.W != 2 || got.Len() != 4 {
			t.Errorf("%s existence probe: width %d, %d rows, want 2 and 4", name, got.W, got.Len())
		}
	}
	for name, got := range probeCase(t, srcs, func(max int) Node {
		return &Join{L: titles(), R: &Access{Pattern: Pat(V("s"), id("type"), id("Date"))}, ProbeMax: max}
	}, 4, JoinIndexProbe) {
		if got.Len() != 0 {
			t.Errorf("%s existence probe: %v, want nothing", name, got)
		}
	}

	// ?s records ?s holds for s3 and s4; of the typed subjects' four rows
	// those two survive.
	for name, got := range probeCase(t, srcs, func(max int) Node {
		return &Join{
			L:        &Access{Pattern: Pat(V("s"), id("type"), V("t"))},
			R:        &Access{Pattern: Pat(V("s"), id("records"), V("s"))},
			ProbeMax: max,
		}
	}, 4, JoinIndexProbe) {
		if got.W != 2 || got.Len() != 2 {
			t.Errorf("%s repeated variable: %v, want s3 and s4 with their types", name, got)
		}
	}

	left := probeCase(t, srcs, func(max int) Node {
		return &Join{L: &Access{Pattern: Pat(V("s"), id("type"), V("t"))}, R: titles(), ProbeMax: max}
	}, 4, JoinIndexProbe)
	for _, name := range seekable {
		o, _, _, err := ExecutePlan(srcs[name], titles(), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := left[name]
		for i := 0; i < got.Len(); i++ {
			// (s, t, x): the access's columns, then the outer's remainder.
			if row := got.Row(i); row[0] != o.Row(i)[0] || row[1] != ids["Text"] || row[2] != o.Row(i)[1] {
				t.Errorf("%s access on the left, row %d: %v, outer row %v", name, i, row, o.Row(i))
			}
		}
	}
}

// TestProbeLeavesOptionalAlone: a LeftJoin has no license to carry, so an
// OPTIONAL's access is scanned whatever its neighbours do; and the NULLs it
// produces, arriving as keys at a licensed join above, match nothing — they
// are never passed to a scan, where the NULL identifier means "unbound".
func TestProbeLeavesOptionalAlone(t *testing.T) {
	ids, srcs := probeFixture(t)
	id := func(k string) TermRef { return C(rdf.ID(ids[k])) }
	mk := func(max int) Node {
		opt := &LeftJoin{
			L: &Access{Pattern: Pat(V("s"), id("type"), V("t"))},
			R: &Access{Pattern: Pat(V("s"), id("records"), V("r"))}, // s4's r is itself, s3's too, s1 → s3, s2 → s1
		}
		withNull := &LeftJoin{L: opt, R: &Access{Pattern: Pat(V("r"), id("language"), V("l"))}} // l is NULL but for s2
		return &Join{L: withNull, R: &Access{Pattern: Pat(V("l"), id("topic"), V("c"))}, ProbeMax: max}
	}
	for name, got := range probeCase(t, srcs, mk, math.MaxInt, JoinHash, JoinHash, JoinIndexProbe) {
		if got.Len() != 0 {
			t.Errorf("%s: %v, want nothing (no language has a topic)", name, got)
		}
	}
}

// TestProbeCloseAndCancelReturnBuffers: abandoned mid-probe — by close, or
// by a context cancelled between two probes — the join and its open scan
// hand every buffer they hold back to the free list.
func TestProbeCloseAndCancelReturnBuffers(t *testing.T) {
	ids, srcs := probeFixture(t)
	id := func(k string) TermRef { return C(rdf.ID(ids[k])) }
	root := &Join{ // four typed subjects; s1 and s2 carry two titles each
		L:        &Access{Pattern: Pat(V("s"), id("type"), V("t"))},
		R:        &Access{Pattern: Pat(V("s"), id("title"), V("x"))},
		ProbeMax: 4,
	}
	p, err := NewPlan(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range seekable {
		for _, cancelled := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			st := &streamer{ctx: ctx, src: srcs[name], ops: srcs[name].Ops(), plan: p, tr: &Trace{},
				mem: &memTracker{}, batch: 1}
			s, err := st.build(root)
			if err != nil {
				t.Fatal(err)
			}
			if b, err := s.it.next(); err != nil || b == nil {
				t.Fatalf("%s: first batch %v, %v", name, b, err)
			}
			var held []*rel.Rel
			var scan iter
			switch j := s.it.(*edge).in.(*probeIter).in.(type) {
			case *hashJoinIter:
				held, scan = append(held, j.out), j.r
			case *mergeJoinIter:
				held, scan = append(held, j.out), j.r
			}
			probes := scan.(*edge).in.(*fanout)
			if probes.it == nil {
				t.Fatalf("%s: no probe open after one row at one row a batch", name)
			}
			for it := probes.it; it != nil; {
				switch x := it.(type) {
				case *gatherIter:
					held, it = append(held, x.out), x.in
				case *srcIter:
					held, it = append(held, x.src.(*cursorIter).out), nil
				default:
					t.Fatalf("%s: %T in a probe's scan chain", name, x)
				}
			}
			if cancelled {
				cancel()
				for err == nil {
					_, err = s.it.next()
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: %v, want context.Canceled", name, err)
				}
			}
			s.it.close()
			cancel()
			for _, b := range held {
				if !slices.Contains(st.free, b) {
					t.Errorf("%s (cancelled %v): a buffer did not return to the free list", name, cancelled)
				}
			}
			if probes.it != nil || st.mem.cur != 0 {
				t.Errorf("%s (cancelled %v): probe %v still open, %d bytes still tracked", name, cancelled, probes.it, st.mem.cur)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, _, err := ExecutePlanCtx(ctx, srcs[name], root, ExecOptions{Streaming: true}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: %v, want context.Canceled", name, err)
		}
	}
}
