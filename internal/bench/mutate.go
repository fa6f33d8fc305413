package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/serve"
	"blackswan/internal/verify"
)

// The live-mutation wiring: the bench layer owns the loaders, so it
// supplies the serving layer's write path with its compaction rebuild —
// the bulk-ingest pipeline loading the folded graph into all four schemes
// under the canonical serving names. RunMutate (below, see mutate
// experiment) drives concurrent writers and readers through the HTTP
// front-end and checks the recorded history against snapshot isolation.

// RebuildTargets loads g into all four storage schemes through the
// bulk-ingest pipeline and returns a fresh estimator plus serving targets
// under the same names BGPSystems uses — the compaction path: the
// estimator is recomputed from the folded graph, so cardinality estimates
// snap back to the mutated data. The estimator builds alongside the
// scheme loads; both only read g.
func RebuildTargets(w *Workload, g *rdf.Graph, cat core.Catalog) (*bgp.Estimator, []serve.Target, error) {
	estc := make(chan *bgp.Estimator, 1)
	go func() { estc <- bgp.NewEstimator(g, cat.Interesting) }()
	sch, err := buildLoadedSchemes(w, g, cat, 0)
	est := <-estc
	if err != nil {
		return nil, nil, err
	}
	targets := []serve.Target{
		{Name: "DBX triple PSO", Src: sch.RowTriple},
		{Name: "DBX vert SO", Src: sch.RowVert},
		{Name: "MonetDB triple PSO", Src: sch.ColTriple},
		{Name: "MonetDB vert SO", Src: sch.ColVert},
	}
	return est, targets, nil
}

// NewMutator wires the write path over a service built from w and systems
// (bench.NewService), with compaction every compactEvery delta entries
// (0 never compacts) rebuilding through RebuildTargets.
func NewMutator(svc *serve.Service, w *Workload, systems []*System, compactEvery int) (*serve.Mutator, error) {
	targets, err := ServeTargets(systems)
	if err != nil {
		return nil, err
	}
	return serve.NewMutator(svc, serve.MutatorConfig{
		Graph:        w.DS.Graph,
		Cat:          w.Cat,
		Est:          w.Estimator(),
		Targets:      targets,
		CompactEvery: compactEvery,
		Rebuild: func(g *rdf.Graph, cat core.Catalog) (*bgp.Estimator, []serve.Target, error) {
			return RebuildTargets(w, g, cat)
		},
	})
}

// MutateOptions configures the mutation experiment.
type MutateOptions struct {
	// Writers is the number of concurrent writer clients; each commits Ops
	// transactions over its own disjoint key range. Defaults 4 and 75.
	Writers int
	Ops     int
	// Readers is the number of concurrent reader clients; each runs
	// ReadOps flag-keyspace reads, rotating across all four schemes, every
	// one recorded as a complete read transaction. Defaults 4 and 200.
	Readers int
	ReadOps int
	// CompactEvery folds the delta into rebuilt tables once it reaches
	// this many entries (default 50).
	CompactEvery int
	// GuardQueries is the generated-corpus size of the byte-identity guard
	// (default 12; the flag query is always added).
	GuardQueries int
	// Seed feeds key shuffling and the guard corpus.
	Seed int64
	// SkipFault skips the fault-injection phase (it leaves the service
	// serving a stale view, so anything after it would be meaningless).
	SkipFault bool
	// CacheSize bounds the plan cache (default 256).
	CacheSize int
}

func (o MutateOptions) withDefaults() MutateOptions {
	if o.Writers <= 0 {
		o.Writers = 4
	}
	if o.Ops <= 0 {
		o.Ops = 75
	}
	if o.Readers <= 0 {
		o.Readers = 4
	}
	if o.ReadOps <= 0 {
		o.ReadOps = 200
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 50
	}
	if o.GuardQueries <= 0 {
		o.GuardQueries = 12
	}
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	return o
}

// MutateSystemReads is one scheme's share of the recorded reads.
type MutateSystemReads struct {
	System string `json:"system"`
	Reads  int    `json:"reads"`
	Rows   int64  `json:"rows"`
}

// MutateReport is the mutation experiment's full result — the BENCH_mutate
// artifact. Violations and ByteIdentical are invariants of an emitted
// report: a clean-phase violation or an identity mismatch aborts the run
// with an error instead.
type MutateReport struct {
	Triples      int   `json:"triples"`
	Writers      int   `json:"writers"`
	OpsPerWriter int   `json:"opsPerWriter"`
	Readers      int   `json:"readers"`
	ReadsPer     int   `json:"readsPerReader"`
	Seed         int64 `json:"seed"`
	// Commits/Compactions from the service counters; FinalVersion after
	// the concurrent phase.
	Commits      int64  `json:"commits"`
	Compactions  int64  `json:"compactions"`
	FinalVersion uint64 `json:"finalVersion"`
	// HistoryOps is the checked history's size (writes + reads);
	// Violations its verdict — zero by construction.
	HistoryOps int `json:"historyOps"`
	Violations int `json:"violations"`
	// CommitsPerSec is commit throughput over the concurrent phase's wall
	// clock; the latency quantiles are client-observed HTTP round-trips.
	CommitsPerSec float64 `json:"commitsPerSec"`
	CommitP50Ms   float64 `json:"commitP50Ms"`
	CommitP95Ms   float64 `json:"commitP95Ms"`
	ReadP50Ms     float64 `json:"readP50Ms"`
	ReadP95Ms     float64 `json:"readP95Ms"`
	ReadP99Ms     float64 `json:"readP99Ms"`
	// ByteIdentical reports the guard: generated queries executed one
	// compiled plan against the live targets and against schemes rebuilt
	// from scratch over the materialized state, byte-comparing per scheme.
	ByteIdentical bool `json:"byteIdentical"`
	GuardChecked  int  `json:"guardQueriesChecked"`
	// FaultInjected/FaultDetected cover the stale-snapshot phase: with the
	// fault armed, the checker must reject the history.
	FaultInjected  bool                `json:"faultInjected"`
	FaultDetected  bool                `json:"faultDetected"`
	FaultViolation string              `json:"faultViolation,omitempty"`
	PerSystem      []MutateSystemReads `json:"perSystemReads"`
}

const mutateFlagQuery = `SELECT ?s ?o WHERE { ?s <mutate/flag> ?o }`

// mutateClient wraps the HTTP front-end for one experiment run.
type mutateClient struct {
	base string
	c    *http.Client
}

func (mc *mutateClient) update(text string) (*serve.UpdateResponse, error) {
	resp, err := mc.c.PostForm(mc.base+"/update", url.Values{"u": {text}})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: mutate: update status %d: %s", resp.StatusCode, body)
	}
	var ur serve.UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		return nil, err
	}
	return &ur, nil
}

func (mc *mutateClient) query(text, system string) (*serve.QueryResponse, error) {
	v := url.Values{"q": {text}, "limit": {"1000000"}}
	if system != "" {
		v.Set("system", system)
	}
	resp, err := mc.c.Get(mc.base + "/query?" + v.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: mutate: query status %d: %s", resp.StatusCode, body)
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, err
	}
	return &qr, nil
}

// flagRead runs the keyspace query and returns the present keys (first
// column) with the version the response claimed.
func (mc *mutateClient) flagRead(system string) ([]string, uint64, error) {
	qr, err := mc.query(mutateFlagQuery, system)
	if err != nil {
		return nil, 0, err
	}
	if qr.Truncated {
		return nil, 0, fmt.Errorf("bench: mutate: flag read truncated at %d rows", len(qr.Rows))
	}
	present := make([]string, 0, len(qr.Rows))
	for _, row := range qr.Rows {
		if len(row) > 0 && row[0] != nil {
			present = append(present, *row[0])
		}
	}
	return present, qr.Version, nil
}

// hasUnboundPropText reports whether the query leaves a property position
// unbound without ORDER BY pinning the output — the one case the
// byte-identity guard must skip, because the unbound-property scan's row
// order is outside every scheme's contract (and the overlay appends its
// additions after the base scan).
func hasUnboundPropText(text string) (bool, error) {
	q, err := bgp.Parse(text)
	if err != nil {
		return false, err
	}
	if len(q.OrderBy) > 0 {
		return false, nil
	}
	unbound := func(p bgp.Pattern) bool { return p.P.IsVar() }
	for _, e := range q.Where {
		switch x := e.(type) {
		case bgp.Pattern:
			if unbound(x) {
				return true, nil
			}
		case *bgp.Optional:
			for _, oe := range x.Where {
				if p, ok := oe.(bgp.Pattern); ok && unbound(p) {
					return true, nil
				}
			}
		}
	}
	return false, nil
}

// RunMutate is the live-mutation experiment: concurrent writers drive
// INSERT DATA / DELETE DATA commits and concurrent readers drive
// version-tagged keyspace reads across all four schemes, everything
// through the HTTP front-end; the recorded history must pass the
// snapshot-isolation checker, the final state must be byte-identical to a
// from-scratch rebuild, and — with the fault injector armed — the checker
// must catch the stale snapshot.
func RunMutate(w *Workload, opt MutateOptions) (*MutateReport, error) {
	opt = opt.withDefaults()
	systems, err := BGPSystems(w)
	if err != nil {
		return nil, err
	}
	svc, err := NewService(w, systems, serve.Config{
		MaxConcurrent: opt.Writers + opt.Readers,
		CacheSize:     opt.CacheSize,
	})
	if err != nil {
		return nil, err
	}
	m, err := NewMutator(svc, w, systems, opt.CompactEvery)
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: serve.NewHandler(svc)}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	mc := &mutateClient{base: "http://" + ln.Addr().String(), c: &http.Client{Timeout: 30 * time.Second}}

	// The sentinel keeps <mutate/flag> alive whatever the deletes do: a
	// fully-deleted property has no table on the partitioned schemes.
	seedUp, err := mc.update(`INSERT DATA { <mutate/seed> <mutate/flag> "live" }`)
	if err != nil {
		return nil, err
	}
	rec := verify.NewRecorder(seedUp.Version, []string{"<mutate/seed>"})

	report := &MutateReport{
		Triples: w.DS.Graph.Len(),
		Writers: opt.Writers, OpsPerWriter: opt.Ops,
		Readers: opt.Readers, ReadsPer: opt.ReadOps,
		Seed: opt.Seed,
	}

	// Concurrent phase: writers and readers together, wall-clocked.
	sysNames := svc.Systems()
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		commitLats []time.Duration
		readLats   []time.Duration
		perSys     = map[string]*MutateSystemReads{}
		firstErr   atomic.Pointer[error]
	)
	failWith := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
	}
	start := time.Now()
	for wi := 0; wi < opt.Writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opt.Seed ^ int64(wi+1)))
			client := fmt.Sprintf("w%d", wi)
			var live []int
			next := 0
			for j := 0; j < opt.Ops; j++ {
				if firstErr.Load() != nil {
					return
				}
				var text, key string
				insert := len(live) == 0 || rng.Intn(100) < 60
				if insert {
					key = fmt.Sprintf("mutate/w%d/k%d", wi, next)
					next++
					text = fmt.Sprintf(`INSERT DATA { <%s> <mutate/flag> "v" }`, key)
				} else {
					pick := rng.Intn(len(live))
					key = fmt.Sprintf("mutate/w%d/k%d", wi, live[pick])
					live = append(live[:pick], live[pick+1:]...)
					text = fmt.Sprintf(`DELETE DATA { <%s> <mutate/flag> "v" }`, key)
				}
				t0 := time.Now()
				ur, err := mc.update(text)
				if err != nil {
					failWith(err)
					return
				}
				lat := time.Since(t0)
				txn := verify.WriteTxn{
					Client: client, Seq: j,
					Base: ur.BaseVersion, Version: ur.Version,
				}
				if insert {
					txn.Put = []string{"<" + key + ">"}
					live = append(live, next-1)
				} else {
					txn.Del = []string{"<" + key + ">"}
				}
				rec.Write(txn)
				mu.Lock()
				commitLats = append(commitLats, lat)
				mu.Unlock()
			}
		}(wi)
	}
	for ri := 0; ri < opt.Readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			client := fmt.Sprintf("r%d", ri)
			for j := 0; j < opt.ReadOps; j++ {
				if firstErr.Load() != nil {
					return
				}
				system := sysNames[(ri+j)%len(sysNames)]
				t0 := time.Now()
				present, version, err := mc.flagRead(system)
				if err != nil {
					failWith(err)
					return
				}
				lat := time.Since(t0)
				rec.Read(verify.ReadTxn{
					Client: client, Seq: j,
					Version: version, Present: present, Complete: true,
				})
				mu.Lock()
				readLats = append(readLats, lat)
				sr := perSys[system]
				if sr == nil {
					sr = &MutateSystemReads{System: system}
					perSys[system] = sr
				}
				sr.Reads++
				sr.Rows += int64(len(present))
				mu.Unlock()
			}
		}(ri)
	}
	wg.Wait()
	wall := time.Since(start)
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}

	stats := svc.Stats()
	report.Commits = stats.Commits
	report.Compactions = stats.Compactions
	report.FinalVersion = svc.Version()
	if wall > 0 {
		report.CommitsPerSec = float64(len(commitLats)) / wall.Seconds()
	}
	sort.Slice(commitLats, func(i, j int) bool { return commitLats[i] < commitLats[j] })
	sort.Slice(readLats, func(i, j int) bool { return readLats[i] < readLats[j] })
	report.CommitP50Ms = quantileMs(commitLats, 0.50)
	report.CommitP95Ms = quantileMs(commitLats, 0.95)
	report.ReadP50Ms = quantileMs(readLats, 0.50)
	report.ReadP95Ms = quantileMs(readLats, 0.95)
	report.ReadP99Ms = quantileMs(readLats, 0.99)
	for _, name := range sysNames {
		if sr := perSys[name]; sr != nil {
			report.PerSystem = append(report.PerSystem, *sr)
		}
	}

	// The checked history: every commit and every read of the concurrent
	// phase. A violation here is a real snapshot-isolation bug — abort.
	h := rec.History()
	report.HistoryOps = len(h.Writes) + len(h.Reads)
	if vs := verify.Check(h); len(vs) != 0 {
		return nil, fmt.Errorf("bench: mutate: %d snapshot-isolation violations, first: %s", len(vs), vs[0])
	}

	// Byte-identity guard: materialize the mutated state, rebuild all four
	// schemes from scratch through the bulk loader, and run one compiled
	// plan per query against both the live targets and the rebuilt ones.
	g2, cat2, err := m.Materialize()
	if err != nil {
		return nil, err
	}
	est2, rebuilt, err := RebuildTargets(w, g2, cat2)
	if err != nil {
		return nil, err
	}
	liveTargets := map[string]core.PhysicalSource{}
	for _, t := range svc.Targets() {
		liveTargets[t.Name] = t.Src
	}
	texts := append(DistinctQueryTexts(w, opt.Seed+1, opt.GuardQueries), mutateFlagQuery)
	for _, text := range texts {
		skip, err := hasUnboundPropText(text)
		if err != nil {
			return nil, err
		}
		if skip {
			continue
		}
		compiled, err := bgp.CompileText(text, svc.Dict(), est2)
		if err != nil {
			return nil, err
		}
		for _, rt := range rebuilt {
			want, _, _, err := core.ExecutePlan(rt.Src, compiled.Root, core.ExecOptions{})
			if err != nil {
				return nil, fmt.Errorf("bench: mutate guard rebuilt %s: %w", rt.Name, err)
			}
			got, _, _, err := core.ExecutePlan(liveTargets[rt.Name], compiled.Root, core.ExecOptions{})
			if err != nil {
				return nil, fmt.Errorf("bench: mutate guard live %s: %w", rt.Name, err)
			}
			if got.W != want.W || fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
				return nil, fmt.Errorf("bench: mutate guard: %s live state differs from rebuild for %q (%d vs %d rows)",
					rt.Name, text, got.Len(), want.Len())
			}
		}
		report.GuardChecked++
	}
	if report.GuardChecked == 0 {
		return nil, fmt.Errorf("bench: mutate guard: every query was skipped")
	}
	report.ByteIdentical = true

	// Fault phase: arm the injector so the next commit installs the new
	// version over the previous snapshot's tables, then commit and read.
	// The checker must reject the history — the black-box proof that the
	// clean phase's empty verdict is meaningful. Last, because it leaves
	// the service serving a stale view.
	if !opt.SkipFault {
		report.FaultInjected = true
		present, version, err := mc.flagRead(sysNames[0])
		if err != nil {
			return nil, err
		}
		rec2 := verify.NewRecorder(version, present)
		m.SetFaultEvery(1)
		for j := 0; j < 3; j++ {
			key := fmt.Sprintf("mutate/fault/k%d", j)
			ur, err := mc.update(fmt.Sprintf(`INSERT DATA { <%s> <mutate/flag> "v" }`, key))
			if err != nil {
				return nil, err
			}
			rec2.Write(verify.WriteTxn{
				Client: "wf", Seq: j,
				Base: ur.BaseVersion, Version: ur.Version,
				Put: []string{"<" + key + ">"},
			})
			p2, v2, err := mc.flagRead(sysNames[j%len(sysNames)])
			if err != nil {
				return nil, err
			}
			rec2.Read(verify.ReadTxn{Client: "rf", Seq: j, Version: v2, Present: p2, Complete: true})
		}
		m.SetFaultEvery(0)
		vs := verify.Check(rec2.History())
		if len(vs) == 0 {
			return nil, fmt.Errorf("bench: mutate: fault injection went undetected — the checker is blind")
		}
		report.FaultDetected = true
		report.FaultViolation = vs[0].String()
	}
	return report, nil
}

// FormatMutate renders the report for the console.
func FormatMutate(r *MutateReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "live mutation over %d base triples: %d writers × %d commits, %d readers × %d reads (seed %d)\n",
		r.Triples, r.Writers, r.OpsPerWriter, r.Readers, r.ReadsPer, r.Seed)
	fmt.Fprintf(&b, "history: %d ops checked, %d violations; commits %d (%d compactions), final version %d\n",
		r.HistoryOps, r.Violations, r.Commits, r.Compactions, r.FinalVersion)
	fmt.Fprintf(&b, "throughput: %.0f commits/s; commit p50/p95 %.3f/%.3f ms; read p50/p95/p99 %.3f/%.3f/%.3f ms\n",
		r.CommitsPerSec, r.CommitP50Ms, r.CommitP95Ms, r.ReadP50Ms, r.ReadP95Ms, r.ReadP99Ms)
	fmt.Fprintf(&b, "byte-identity guard: %d queries, identical: %v\n", r.GuardChecked, r.ByteIdentical)
	if r.FaultInjected {
		fmt.Fprintf(&b, "fault injection: detected %v (%s)\n", r.FaultDetected, r.FaultViolation)
	}
	fmt.Fprintf(&b, "\n%-18s %8s %10s\n", "system", "reads", "rows")
	for _, s := range r.PerSystem {
		fmt.Fprintf(&b, "%-18s %8d %10d\n", s.System, s.Reads, s.Rows)
	}
	return b.String()
}
