package bench

import (
	"fmt"
	"strings"
	"sync"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

// The workloads experiment runs arbitrary basic-graph-pattern queries —
// generated or user-supplied — through the BGP compiler on the four
// storage schemes, the open-ended counterpart of the paper's fixed
// 12-query grid: any point of the Section 2.2 query space, measured under
// the same cold/hot protocol.

// BGPSystems builds the systems the BGP workload runs on: both engines ×
// both schemes, PSO clustering for the triple-stores (the paper's best),
// machine B. C-Store's restricted load cannot answer arbitrary properties
// and is omitted.
func BGPSystems(w *Workload) ([]*System, error) {
	return buildSystems(
		func() (*System, error) { return NewDBXTriple(w, rdf.PSO, simio.MachineB()) },
		func() (*System, error) { return NewDBXVert(w, simio.MachineB()) },
		func() (*System, error) { return NewMonetTriple(w, rdf.PSO, simio.MachineB()) },
		func() (*System, error) { return NewMonetVert(w, simio.MachineB()) },
	)
}

// MeasurePlan runs a compiled plan under the Section 2.3 protocol (cold:
// caches dropped before each run; hot: one warm-up, caches kept), averaged
// over MeasuredRuns, returning the timing and the last result.
func (s *System) MeasurePlan(root core.Node, mode Mode) (Timing, *rel.Rel, error) {
	src, ok := s.DB.(core.PhysicalSource)
	if !ok {
		return Timing{}, nil, fmt.Errorf("bench: %s cannot run compiled plans", s.Name)
	}
	t, res, err := s.measureRuns(func() (*rel.Rel, error) {
		out, _, _, err := core.ExecutePlan(src, root, core.ExecOptions{})
		return out, err
	}, mode)
	if err != nil {
		return Timing{}, nil, fmt.Errorf("bench: %s: %w", s.Name, err)
	}
	return t, res, nil
}

// BGPResult is one generated query's row of the workloads experiment.
type BGPResult struct {
	Index    int
	Shape    bgp.Shape
	Text     string
	Patterns int
	// Cost is the compiler's estimated plan cost.
	Cost float64
	Rows int
	// Times holds one timing per system, in BGPSystems order.
	Times []Timing
}

// RunBGPWorkload generates n seeded random BGP queries, compiles each once
// with the workload's statistics, and measures it on every system under
// mode. Systems measure concurrently (each owns its store and clock);
// results are deterministic. Every query's result is verified identical
// across schemes before timings are reported.
func RunBGPWorkload(w *Workload, systems []*System, n int, seed int64, mode Mode) ([]BGPResult, error) {
	est := w.Estimator()
	gen := bgp.NewGenerator(w.DS.Graph, bgp.GenConfig{Seed: seed})
	results := make([]BGPResult, n)
	for i := 0; i < n; i++ {
		q, shape := gen.Query(i)
		compiled, err := bgp.Compile(q, w.DS.Graph.Dict, est)
		if err != nil {
			return nil, fmt.Errorf("bench: query %d (%s): %w", i, q.Text(), err)
		}
		results[i] = BGPResult{
			Index: i, Shape: shape, Text: q.Text(),
			Patterns: len(q.Patterns()), Cost: compiled.Cost,
			Times: make([]Timing, len(systems)),
		}
		rels := make([]*rel.Rel, len(systems))
		errs := make([]error, len(systems))
		var wg sync.WaitGroup
		for si, sys := range systems {
			wg.Add(1)
			go func(si int, sys *System) {
				defer wg.Done()
				t, res, err := sys.MeasurePlan(compiled.Root, mode)
				results[i].Times[si] = t
				rels[si], errs[si] = res, err
			}(si, sys)
		}
		wg.Wait()
		for si, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("bench: query %d on %s: %w", i, systems[si].Name, err)
			}
		}
		results[i].Rows = rels[0].Len()
		for si := 1; si < len(rels); si++ {
			if !rel.Equal(rels[si], rels[0]) {
				return nil, fmt.Errorf("bench: query %d (%s): %s disagrees with %s (%d vs %d rows)",
					i, q.Text(), systems[si].Name, systems[0].Name, rels[si].Len(), rels[0].Len())
			}
		}
	}
	return results, nil
}

// FormatBGPWorkload renders the workload results: one block per query with
// per-system real/user seconds.
func FormatBGPWorkload(results []BGPResult, systems []*System, mode Mode) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d generated BGP queries, %s runs (results verified identical across schemes)\n\n",
		len(results), mode)
	for _, r := range results {
		fmt.Fprintf(&b, "# query %d (%s, %d patterns, est. cost %.0f): %s\n",
			r.Index, r.Shape, r.Patterns, r.Cost, r.Text)
		fmt.Fprintf(&b, "%-18s %10s %10s %10s\n", "system", "real (s)", "user (s)", "rows")
		for si, sys := range systems {
			real, user := r.Times[si].Seconds()
			fmt.Fprintf(&b, "%-18s %10.3f %10.3f %10d\n", sys.Name, real, user, r.Rows)
		}
		b.WriteString("\n")
	}
	return b.String()
}
