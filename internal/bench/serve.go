package bench

import (
	"fmt"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/serve"
)

// The serving-layer wiring shared by swanserve, the experiments that drive
// the service (observe, mutate), the ledger under benchmark/ and the serve
// package's tests: targets and a Service from benchmark systems, and a
// distinct generated working set.

// ServeTargets adapts benchmark systems to serving targets.
func ServeTargets(systems []*System) ([]serve.Target, error) {
	out := make([]serve.Target, len(systems))
	for i, s := range systems {
		src, ok := s.DB.(core.PhysicalSource)
		if !ok {
			return nil, fmt.Errorf("bench: %s cannot serve compiled plans", s.Name)
		}
		out[i] = serve.Target{Name: s.Name, Src: src}
	}
	return out, nil
}

// NewService builds a serving layer over benchmark systems: targets from
// the systems, compile inputs (dictionary, estimator) from the workload
// they were loaded with.
func NewService(w *Workload, systems []*System, cfg serve.Config) (*serve.Service, error) {
	targets, err := ServeTargets(systems)
	if err != nil {
		return nil, err
	}
	return serve.New(w.DS.Graph.Dict, w.Estimator(), cfg, targets...)
}

// DistinctQueryTexts generates up to n BGP query texts from the
// workload's generator, distinct by canonical text. The generator may
// repeat itself, so attempts are bounded at 10×n and a tiny vocabulary
// can yield fewer than n. Consumers that count one compile or one
// fingerprint per distinct plan draw their working sets here.
func DistinctQueryTexts(w *Workload, seed int64, n int) []string {
	gen := bgp.NewGenerator(w.DS.Graph, bgp.GenConfig{Seed: seed})
	texts := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; len(texts) < n && i < n*10; i++ {
		q, _ := gen.Query(i)
		text := q.Text()
		canon := bgp.CanonicalText(text)
		if seen[canon] {
			continue
		}
		seen[canon] = true
		texts = append(texts, text)
	}
	return texts
}

func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Microseconds()) / 1e3
}
