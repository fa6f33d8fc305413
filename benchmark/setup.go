package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"blackswan/internal/bench"
	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/ingest"
	"blackswan/internal/rdf"
	"blackswan/internal/serve"
)

// config is one run's input. The command line fills workload, seed, seconds
// and trace; the remaining fields exist so bench_test.go can run the same
// code small (20 k triples, one round, one set-up).
type config struct {
	workload string
	seed     int64
	seconds  float64
	triples  int
	// rounds > 0 measures exactly that many rounds and ignores seconds.
	rounds int
	setups int
	// corruptRefs flips every reference hash after it is computed — the
	// test-only proof that the correctness gate can fail.
	corruptRefs bool
}

func (c config) withDefaults() config {
	if c.triples <= 0 {
		c.triples = defaultTriples
	}
	if c.setups <= 0 {
		c.setups = setupRuns
	}
	return c
}

// cores is the rule GOMAXPROCS = MaxConcurrent = min(nproc, 4).
func cores() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// clientsOf is the number of closed-loop clients that drive a workload: one
// per core — clients saturate the cores they run on, and no more — except on
// point-lookup, which one client drives. Two clients sending 20 µs requests
// serialize on the service's per-request locks (the workload registry's
// above all): on 2 cores they reach 1.17 times the throughput of one, a
// thread goes to sleep on a lock once in six requests, and the slowest 15 %
// of the latencies are the 100–200 µs the host takes to wake it. The p90 sat
// on the edge of that tail and moved 27 % between sets of identical runs,
// with the host's mood. One client measures what the workload is for, the
// fixed cost of a request, and leaves a core to the collector; requests of
// this size from concurrent sessions are mixed-rw's reads.
func clientsOf(workload string) int {
	if workload == wlLookup {
		return 1
	}
	return cores()
}

// system is what the benchmark drives: a service over the four schemes,
// reached only through its HTTP handler (end to end) or its layers' public
// functions (traced run).
type system struct {
	w       *bench.Workload
	served  []*bench.System // the four BGP schemes, schemeNames order
	grid    []*bench.System // paper-analytic: bench.FullGrid's seven systems
	svc     *serve.Service
	mut     *serve.Mutator // mixed-rw
	handler http.Handler
	ntBytes int64 // size of the data set as N-Triples

	// Set-up stage timings (seconds), reported by the traced run.
	generateS, estimatorS float64
}

// buildSystem is the timed set-up of one workload: generate (or ingest) the
// data, load the schemes, build the estimator and the service.
func buildSystem(cfg config) (*system, error) {
	sys := &system{}
	dcfg := datagen.Config{Triples: cfg.triples, Properties: properties, Interesting: interesting, Seed: cfg.seed}

	t0 := time.Now()
	var err error
	if cfg.workload == wlLookup {
		// The path a deployment takes: an N-Triples dump through the bulk
		// loader, vocabulary and catalog recovered from the loaded graph.
		ds, err := datagen.Generate(dcfg)
		if err != nil {
			return nil, err
		}
		sys.generateS = time.Since(t0).Seconds()
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, ds.Graph); err != nil {
			return nil, err
		}
		sys.ntBytes = int64(buf.Len())
		g, _, err := ingest.Load(bytes.NewReader(buf.Bytes()), ingest.Options{Deterministic: true})
		if err != nil {
			return nil, err
		}
		sys.w, err = bench.WorkloadFromGraph(g)
		if err != nil {
			return nil, err
		}
	} else {
		sys.w, err = bench.NewWorkload(dcfg)
		if err != nil {
			return nil, err
		}
		sys.generateS = time.Since(t0).Seconds()
	}

	if cfg.workload == wlPaper {
		// FullGrid contains the four served schemes; build it once and serve
		// from it, so phase A and phase B measure the same tables.
		sys.grid, err = bench.FullGrid(sys.w)
		if err != nil {
			return nil, err
		}
		for _, name := range schemeNames {
			for _, s := range sys.grid {
				if s.Name == name {
					sys.served = append(sys.served, s)
				}
			}
		}
		if len(sys.served) != len(schemeNames) {
			return nil, fmt.Errorf("benchmark: FullGrid lacks a served scheme")
		}
	} else {
		sys.served, err = bench.BGPSystems(sys.w)
		if err != nil {
			return nil, err
		}
	}

	t2 := time.Now()
	sys.w.Estimator()
	sys.estimatorS = time.Since(t2).Seconds()

	if err := sys.newService(cfg.workload); err != nil {
		return nil, err
	}
	return sys, nil
}

// newService (re)builds the service, and for mixed-rw the write path, over
// the loaded schemes.
func (sys *system) newService(workload string) error {
	scfg := serve.Config{MaxConcurrent: cores(), ExecWorkers: 1}
	if workload == wlLookup {
		scfg.CacheSize = lookupCache
	}
	svc, err := bench.NewService(sys.w, sys.served, scfg)
	if err != nil {
		return err
	}
	sys.svc = svc
	sys.mut = nil
	if workload == wlMixed {
		sys.mut, err = bench.NewMutator(svc, sys.w, sys.served, compactEvery)
		if err != nil {
			return err
		}
	}
	sys.handler = serve.NewHandler(svc)
	return nil
}

// setup runs the timed set-up cfg.setups times and keeps the last system.
// setup_s is their lower quartile (of three: the fastest), like every host
// timing: one set-up is 1.5–2.5 s of allocation-heavy work, and a single
// sample of that moves by 10–20 % between identical runs. heapLiveMB is read
// after two forced collections, with the earlier set-ups already unreachable.
func setup(cfg config) (sys *system, setupS, heapLiveMB float64, err error) {
	var times []float64
	for i := 0; i < cfg.setups; i++ {
		sys = nil
		runtime.GC()
		t0 := time.Now()
		sys, err = buildSystem(cfg)
		if err != nil {
			return nil, 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if sys.ntBytes == 0 {
		var cw countWriter
		if err := rdf.WriteNTriples(&cw, sys.w.DS.Graph); err != nil {
			return nil, 0, 0, err
		}
		sys.ntBytes = cw.n
	}
	return sys, fastQuartile(times), float64(ms.HeapAlloc) / 1e6, nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// storedBytesPerInputByte is Σ Store.TotalBytes() over the served schemes ÷
// the data set's N-Triples size.
func (sys *system) storedBytesPerInputByte() float64 {
	var total int64
	for _, s := range sys.served {
		total += s.Store.TotalBytes()
	}
	return float64(total) / float64(sys.ntBytes)
}

// simCell is one (system, query) cell of the simulated-clock grid.
type simCell struct {
	coldReal, hotReal float64 // simulated seconds
	coldIO            float64
	hotUser           float64
	coldBytes         int64
	hotHits, hotMiss  int64
}

// simGrid measures the workload's cells under the simulated clock with the
// materializing executor: once cold (caches dropped), once hot (the run
// right after). The clock is deterministic, so one execution per cell is
// the value. For paper-analytic the cells are the paper's own — every
// supported query of bench.FullGrid's seven systems, Tables 6 and 7; for the
// other workloads they are the given compiled plans on the four served
// schemes. Systems own their stores, so they run concurrently.
func (sys *system) simGrid(plans []core.Node) ([]simCell, error) {
	systems := sys.served
	if sys.grid != nil {
		systems = sys.grid
	}
	perSys := make([][]simCell, len(systems))
	errs := make([]error, len(systems))
	var wg sync.WaitGroup
	for i, s := range systems {
		wg.Add(1)
		go func(i int, s *bench.System) {
			defer wg.Done()
			var runs []func() error
			if sys.grid != nil {
				for _, q := range core.BenchmarkQueries() {
					if s.Supports(q) {
						q := q
						runs = append(runs, func() error { _, err := s.DB.Run(q); return err })
					}
				}
			} else {
				src, ok := s.DB.(core.PhysicalSource)
				if !ok {
					errs[i] = fmt.Errorf("benchmark: %s cannot run compiled plans", s.Name)
					return
				}
				for _, root := range plans {
					root := root
					runs = append(runs, func() error {
						_, _, _, err := core.ExecutePlan(src, root, core.ExecOptions{})
						return err
					})
				}
			}
			for _, run := range runs {
				var c simCell
				s.Store.DropCaches()
				s.Store.ResetStats()
				s.Store.Clock().Reset()
				if err := run(); err != nil {
					errs[i] = err
					return
				}
				clk := s.Store.Clock()
				c.coldReal, c.coldIO = clk.Real().Seconds(), clk.IO().Seconds()
				c.coldBytes = s.Store.Stats().BytesRead
				s.Store.ResetStats()
				clk.Reset()
				if err := run(); err != nil {
					errs[i] = err
					return
				}
				c.hotReal, c.hotUser = clk.Real().Seconds(), clk.User().Seconds()
				st := s.Store.Stats()
				c.hotHits, c.hotMiss = st.PageHits, st.PageMisses
				perSys[i] = append(perSys[i], c)
			}
		}(i, s)
	}
	wg.Wait()
	var cells []simCell
	for i := range systems {
		if errs[i] != nil {
			return nil, errs[i]
		}
		cells = append(cells, perSys[i]...)
	}
	return cells, nil
}

// compilePlans compiles texts against the system's dictionary and estimator.
func (sys *system) compilePlans(texts []string) ([]core.Node, error) {
	plans := make([]core.Node, len(texts))
	for i, t := range texts {
		c, err := bgp.CompileText(t, sys.w.DS.Graph.Dict, sys.w.Estimator())
		if err != nil {
			return nil, fmt.Errorf("benchmark: compile %q: %w", t, err)
		}
		plans[i] = c.Root
	}
	return plans, nil
}
