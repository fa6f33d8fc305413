package bgp_test

import (
	"context"
	"reflect"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rel"
)

// execution is everything one run of a plan is judged by: rows, columns,
// the lowering trace without its profile, and the simulated charges.
type execution struct {
	out             *rel.Rel
	cols            []string
	tr              core.Trace
	cpu, io, bytesR int64
}

// runCold runs exec on src from the paper's cold state and records it.
func runCold(t *testing.T, src core.PhysicalSource, exec func() (*rel.Rel, []string, *core.Trace, error)) execution {
	t.Helper()
	st := src.Ops().Store
	st.DropCaches()
	st.Clock().Reset()
	st.ResetStats()
	out, cols, tr, err := exec()
	if err != nil {
		t.Fatal(err)
	}
	e := execution{out: out, cols: cols, tr: *tr}
	e.tr.Profile = nil
	e.cpu, e.io, e.bytesR = st.Charges()
	return e
}

// TestOneAnalysisSameExecution holds the executor's one entry to its
// wrapper: for the twelve paper queries, as PlanFor builds them and as the
// compiler compiles their text, an analysed plan's Execute and
// ExecutePlanCtx over its root agree on rows, columns, the lowering trace
// (joins, partition scans, union parts, source batches, peak bytes, TopNs)
// and the simulated charges, on every scheme in both configurations — and
// the held plan allocates strictly less, since it pays no analysis.
func TestOneAnalysisSameExecution(t *testing.T) {
	f := loadFixture(t)
	dict := f.ds.Graph.Dict
	ctx := context.Background()
	for _, q := range core.BenchmarkQueries() {
		hand, err := core.PlanFor(q, f.cat.Consts)
		if err != nil {
			t.Fatal(err)
		}
		text, err := bgp.PaperText(q, dict, f.cat.Consts)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := bgp.CompileText(text, dict, f.est)
		if err != nil {
			t.Fatal(err)
		}
		for kind, p := range map[string]*core.Plan{"PlanFor": hand, "compiled": compiled.Plan} {
			for _, name := range f.names {
				src := f.srcs[name]
				for _, opt := range []core.ExecOptions{{}, {Streaming: true}} {
					wrapped := runCold(t, src, func() (*rel.Rel, []string, *core.Trace, error) {
						return core.ExecutePlanCtx(ctx, src, p.Root, opt)
					})
					held := runCold(t, src, func() (*rel.Rel, []string, *core.Trace, error) {
						return p.Execute(ctx, src, opt)
					})
					if !rel.Equal(held.out, wrapped.out) || !reflect.DeepEqual(held, wrapped) {
						t.Errorf("%v %s %s %+v: held plan ran\n %+v\nwrapper ran\n %+v", q, kind, name, opt, held, wrapped)
					}
				}
			}
			src := f.srcs["colvert"]
			opt := core.ExecOptions{Streaming: true}
			held := testing.AllocsPerRun(5, func() { p.Execute(ctx, src, opt) })
			wrapped := testing.AllocsPerRun(5, func() { core.ExecutePlanCtx(ctx, src, p.Root, opt) })
			if held >= wrapped {
				t.Errorf("%v %s: a held plan allocates %.0f objects a run, the wrapper %.0f", q, kind, held, wrapped)
			}
		}
	}
}
