package serve_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rel"
	"blackswan/internal/serve"
)

// TestStreamingHammer drives many concurrent clients through a service in
// its default, pipelined configuration against every scheme at once, with
// plain and LIMIT-bearing queries mixed, and checks every response byte-for-
// byte against a single-threaded baseline computed in the drain
// configuration. Run under -race (CI does) this is the concurrency-safety
// proof for the shared stores, the plan cache, and the executor's per-query
// state.
func TestStreamingHammer(t *testing.T) {
	w, sys, est := fixture(t)
	svc := newService(t, serve.Config{MaxConcurrent: 8})
	texts := queryTexts(t, 8)
	// Guarantee early-termination traffic: ORDER BY + LIMIT queries over the
	// vocabulary every generated workload carries.
	texts = append(texts,
		`SELECT * WHERE { ?s <barton/type> ?t } ORDER BY ?t ?s LIMIT 3`,
		`SELECT ?t (COUNT AS ?n) WHERE { ?s <barton/type> ?t } GROUP BY ?t ORDER BY ?n DESC LIMIT 2`,
	)
	// Drained single-threaded baseline per (text, system).
	type key struct{ text, system string }
	want := map[key]*rel.Rel{}
	for _, text := range texts {
		compiled, err := bgp.CompileText(text, w.DS.Graph.Dict, est)
		if err != nil {
			t.Fatalf("compile %q: %v", text, err)
		}
		for _, s := range sys {
			src := s.DB.(core.PhysicalSource)
			out, _, _, err := core.ExecutePlan(src, compiled.Root, core.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %q: %v", s.Name, text, err)
			}
			want[key{text, s.Name}] = out
		}
	}
	const clients, rounds = 16, 20
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				text := texts[(c+i)%len(texts)]
				s := sys[(c*rounds+i)%len(sys)]
				res, err := svc.ExecText(ctx, text, s.Name)
				if err != nil {
					errc <- fmt.Errorf("%s: %q: %v", s.Name, text, err)
					return
				}
				exp := want[key{text, s.Name}]
				if res.Rows.W != exp.W || fmt.Sprint(res.Rows.Data) != fmt.Sprint(exp.Data) {
					errc <- fmt.Errorf("%s: %q: concurrent streaming result differs from baseline", s.Name, text)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := svc.Stats()
	if got := int(st.Queries); got != clients*rounds {
		t.Errorf("served %d queries, want %d", got, clients*rounds)
	}
}
