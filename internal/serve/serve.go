// Package serve is the query-serving subsystem: it wraps one or more
// loaded storage schemes behind a concurrent Prepare/Exec interface, the
// step from batch benchmark to system under live query traffic.
//
// Four mechanisms make serving cheap and bounded:
//
//   - a plan cache: compiled plans are immutable and scheme-independent
//     (the compiler resolves terms against the workload dictionary and
//     orders joins from workload statistics, not from any scheme), so one
//     LRU entry keyed by the lexically-canonical query text serves every
//     scheme, and a cache hit skips parsing and join ordering entirely —
//     hit/miss/eviction counters prove it; concurrent first touches of
//     the same query coalesce onto a single compilation (singleflight),
//     so a thundering herd compiles once, not once per client;
//   - admission control: a bounded slot pool admits at most MaxConcurrent
//     executions, each on its caller's goroutine, so N clients never
//     oversubscribe the host; waiting clients honour context cancellation;
//   - pipelined execution: admitted queries run the executor's pipelined
//     configuration (core.ExecOptions{Streaming: true}), so each in-flight
//     query holds batches plus operator state rather than whole operator
//     outputs, and LIMIT/TopN requests release their admission slot as soon
//     as their prefix is complete;
//   - request contexts: the client's context threads through the cached
//     plan's Execute, so a cancelled or expired request aborts at the next
//     batch boundary.
//
// The dataset behind the service is a swappable snapshot: dictionary,
// estimator, targets and plan cache travel together behind one atomic
// pointer, and Swap installs a freshly loaded dataset under live traffic —
// executions that already started finish on the snapshot they resolved,
// new requests land on the new one, and nothing ever observes a half-
// swapped state. This is what lets swanserve bulk-reload (see
// internal/ingest) without a restart.
//
// Every execution returns per-query metrics (latency, admission wait, row
// count, cache state) and feeds the service-level counters and latency
// histogram behind Stats. The observability surface goes further:
// ExecOpts{Profile: true} attaches a per-operator EXPLAIN ANALYZE tree
// (measured rows, simulated CPU/IO charges, host time, peak memory, the
// planner's cardinality estimates — see internal/core's profile collector)
// without changing a byte of the result; WriteMetrics renders every
// counter, the latency histogram and the last bulk load as a
// dependency-free Prometheus text exposition (prom.go); and queries at or
// above Config.SlowQueryThreshold land in a bounded newest-first ring with
// their plan and profile (slowlog.go). Every execution is additionally
// folded into the workload registry (workload.go) under its fingerprint —
// the hash of the canonical query text — which aggregates counts, rows,
// latency/queue-wait quantile sketches, per-system splits and per-operator
// cardinality drift (q-error) for profiled runs. All of these sinks — the
// counters, the registry, the slow/error ring, the execute span and the
// structured log — are fed from one queryEvent that exec builds once per
// execution and observe fans out, so they carry the same facts (trace ID,
// fingerprint, system, dataset version, cached, queued, latency, rows,
// error class). The HTTP front-end in
// http.go exposes all of it over JSON — /query (with profile support),
// /stats, /metrics, /debug/slow, /debug/workload — with positioned parse
// diagnostics and classified errors for bad queries.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/trace"
)

// Target is one servable storage scheme: a loaded database exposed through
// the core physical-access interface under a stable client-facing name.
type Target struct {
	Name string
	Src  core.PhysicalSource
}

// Config tunes a Service. The zero value is usable: GOMAXPROCS admission
// slots, a 256-entry plan cache.
type Config struct {
	// MaxConcurrent bounds concurrently admitted executions; further Exec
	// calls wait (admission control) until a slot frees or their context
	// ends. Defaults to GOMAXPROCS.
	MaxConcurrent int
	// ExecWorkers is accepted and ignored: every admitted execution runs on
	// its caller's goroutine, so MaxConcurrent alone sizes the host. The
	// field remains because the performance ledger (benchmark/) sets it to
	// 1, the only meaning it ever relied on.
	ExecWorkers int
	// CacheSize bounds the plan cache in entries. 0 defaults to 256; a
	// negative value disables caching (every execution compiles — the
	// cold baseline the benchmark compares against).
	CacheSize int
	// Materialize runs executions in the executor's drain configuration
	// (core.ExecOptions{Streaming: false}: one unbounded batch per operator,
	// scans included) instead of the pipelined default. Results are
	// byte-identical; pipelined, per-query memory stays bounded by batches
	// plus operator state and LIMIT/TopN queries terminate their scans
	// early, which is what matters under concurrent traffic. The performance
	// ledger sets it for its reference service, so that a response is checked
	// against rows another configuration computed on another scheme.
	Materialize bool
	// SlowQueryThreshold enables the slow-query log: served queries whose
	// latency (admission wait included) reaches the threshold are recorded
	// in a bounded ring readable at /debug/slow. 0 disables the log.
	SlowQueryThreshold time.Duration
	// SlowLogSize bounds the slow-query ring in entries; 0 defaults to
	// DefaultSlowLogSize. Older entries are overwritten. Setting it (with
	// a zero threshold) arms the ring for errored executions only.
	SlowLogSize int
	// WorkloadCapacity bounds the workload registry (workload.go) in
	// fingerprint entries: every execution is aggregated per query shape —
	// counts, rows, latency/queue-wait quantile sketches, per-system
	// splits, error classes, and per-operator q-error when profiled —
	// readable at /debug/workload and exported as blackswan_workload_*
	// metrics. 0 defaults to DefaultWorkloadCapacity; a negative value
	// disables the registry.
	WorkloadCapacity int
	// Tracer enables request-scoped tracing: every request that enters
	// through TraceStart gets a trace whose spans follow it through
	// admission, the plan cache, compilation and execution, joined to the
	// slow log and the structured log by the trace ID. nil disables
	// tracing entirely (untraced requests pay one nil check per span
	// site).
	Tracer *trace.Tracer
	// Logger receives the service's structured log lines (slow queries,
	// failed executions, swaps, ingest records), each carrying the trace
	// ID when the request was traced. nil discards them.
	Logger *slog.Logger
}

// DefaultCacheSize is the plan-cache capacity when Config.CacheSize is 0.
const DefaultCacheSize = 256

// snapshot is one immutable dataset generation: everything that must
// change together when the served data changes. Prepared handles pin the
// snapshot they were compiled on, so a plan never executes against a
// dictionary it was not resolved in.
type snapshot struct {
	dict    rdf.Dict
	est     *bgp.Estimator
	targets []Target
	byName  map[string]int
	names   []string // target names, sorted once at construction
	cache   *planCache
	// version is the dataset version this snapshot serves: strictly
	// increasing across installs, stamped by installSnapshot, and carried by
	// every result executed on the snapshot. Clients use it to correlate
	// reads with commits — the observable total order the verify package's
	// snapshot-isolation checker is built on.
	version uint64
}

func newSnapshot(dict rdf.Dict, est *bgp.Estimator, cacheSize int, targets []Target) (*snapshot, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("serve: no targets")
	}
	sn := &snapshot{
		dict:    dict,
		est:     est,
		targets: targets,
		byName:  make(map[string]int, len(targets)),
		cache:   newPlanCache(cacheSize),
	}
	for i, t := range targets {
		if t.Src == nil {
			return nil, fmt.Errorf("serve: target %q has no source", t.Name)
		}
		if _, dup := sn.byName[t.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate target %q", t.Name)
		}
		sn.byName[t.Name] = i
		sn.names = append(sn.names, t.Name)
	}
	sort.Strings(sn.names)
	return sn, nil
}

// Service serves BGP queries against the targets of its current dataset
// snapshot. All methods are safe for concurrent use; the underlying stores
// serialize their accounting, so concurrent executions on one scheme are
// correct (simulated charges sum as if queries queued on the paper's
// single-threaded systems — serving throughput is a host-time quantity,
// not a simulated one).
type Service struct {
	cfg     Config
	snap    atomic.Pointer[snapshot]
	sem     chan struct{}
	metrics *Metrics
	slow    *trace.Ring[SlowEntry]
	wl      *workloadReg
	log     *slog.Logger
	ingest  atomic.Pointer[IngestSnapshot]

	// version issues dataset versions: the last value handed out, bumped by
	// installSnapshot. The versions ring remembers recent installs for
	// /debug/versions; mutator, when set, is the service's write path.
	version  atomic.Uint64
	versions *trace.Ring[VersionEntry]
	mutator  atomic.Pointer[Mutator]

	// compileHook, when set (tests only), runs inside the singleflight
	// leader immediately before compilation — it widens the window in
	// which concurrent first touches must coalesce.
	compileHook func()
}

// New builds a service over the given targets. The dictionary and
// estimator are the workload-level compile inputs shared by every target
// (the same values the targets were loaded from).
func New(dict rdf.Dict, est *bgp.Estimator, cfg Config, targets ...Target) (*Service, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	sn, err := newSnapshot(dict, est, cfg.CacheSize, targets)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		metrics:  &Metrics{},
		log:      cfg.Logger,
		versions: trace.NewRing[VersionEntry](DefaultVersionRing),
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	// The ring also captures errored executions, so an explicit size arms
	// it even without a latency threshold.
	if cfg.SlowQueryThreshold > 0 || cfg.SlowLogSize > 0 {
		s.slow = newSlowLog(cfg.SlowLogSize)
	}
	// The workload registry is on by default; unlike the plan cache it
	// survives Swap — the workload belongs to the clients, not the dataset.
	if cfg.WorkloadCapacity >= 0 {
		s.wl = newWorkloadReg(cfg.WorkloadCapacity)
	}
	sn.version = 1
	s.version.Store(1)
	s.versions.Add(VersionEntry{Version: 1, Kind: VersionInitial, When: time.Now()})
	s.snap.Store(sn)
	return s, nil
}

// Version kinds as reported by Versions and /debug/versions.
const (
	// VersionInitial is the seed snapshot New installed.
	VersionInitial = "initial"
	// VersionReload is a full dataset replacement (Swap or Mutator.Rebase).
	VersionReload = "reload"
	// VersionCommit is a delta-overlay write commit (Mutator.ApplyUpdate).
	VersionCommit = "commit"
	// VersionCompaction is a commit whose delta was folded into a full
	// rebuild — the dataset contents equal the overlay it replaced.
	VersionCompaction = "compaction"
)

// DefaultVersionRing bounds the version history kept for /debug/versions.
const DefaultVersionRing = 64

// VersionEntry describes one installed dataset snapshot.
type VersionEntry struct {
	Version uint64    `json:"version"`
	Kind    string    `json:"kind"`
	When    time.Time `json:"when"`
	// Triples is the dataset size at install when known (0 otherwise);
	// DeltaAdds and DeltaDels size the overlay of a commit.
	Triples   int `json:"triples,omitempty"`
	DeltaAdds int `json:"deltaAdds,omitempty"`
	DeltaDels int `json:"deltaDels,omitempty"`
	// Live marks the snapshot currently serving new requests. Older entries
	// may still be pinned by in-flight executions and Prepared handles.
	Live bool `json:"live"`
}

// installSnapshot stamps sn with the next dataset version, publishes it and
// records the install in the version ring. It returns the version of the
// snapshot that was current immediately before the install (the base the
// install applied on) and the new version. Writers serialize installs (the
// Mutator holds its commit lock across this call); concurrent Swap calls
// still get unique, increasing versions.
func (s *Service) installSnapshot(sn *snapshot, e VersionEntry) (base, version uint64) {
	base = s.snap.Load().version
	version = s.version.Add(1)
	sn.version = version
	e.Version = version
	if e.When.IsZero() {
		e.When = time.Now()
	}
	s.versions.Add(e)
	s.snap.Store(sn)
	return base, version
}

// Versions returns the recent install history, newest first, with the
// currently served snapshot marked Live.
func (s *Service) Versions() []VersionEntry {
	live := s.snap.Load().version
	out := s.versions.Entries()
	for i := range out {
		out[i].Live = out[i].Version == live
	}
	return out
}

// Version returns the dataset version currently serving new requests.
func (s *Service) Version() uint64 { return s.snap.Load().version }

// SetMutator installs the service's write path (see mutate.go); the HTTP
// front-end routes POST /update to it.
func (s *Service) SetMutator(m *Mutator) { s.mutator.Store(m) }

// Mutator returns the installed write path, nil when the service is
// read-only.
func (s *Service) Mutator() *Mutator { return s.mutator.Load() }

// IngestSnapshot describes the most recent bulk load behind the served
// data, recorded by the loader (swanserve's ingest path) so /metrics can
// expose load throughput and the simulated pipeline-overlap gain next to
// the query-side counters.
type IngestSnapshot struct {
	// Statements and Bytes are the load's input volume.
	Statements int64 `json:"statements"`
	Bytes      int64 `json:"bytes"`
	// Wall is the host time of the load; StageBusy the host busy time per
	// pipeline stage ("scan", "parse", "assemble").
	Wall      time.Duration            `json:"wallNs"`
	StageBusy map[string]time.Duration `json:"stageBusyNs,omitempty"`
	// SimSync and SimOverlapped are the simulated-clock compositions of the
	// same load: blocking reads (cpu+io) vs the pipelined read-ahead the
	// parallel loader achieves (max(cpu,io), simio.Clock.SetOverlapped).
	SimCPU        time.Duration `json:"simCpuNs"`
	SimIO         time.Duration `json:"simIoNs"`
	SimSync       time.Duration `json:"simSyncNs"`
	SimOverlapped time.Duration `json:"simOverlappedNs"`
}

// RecordIngest publishes the stats of the load behind the current dataset.
// Callers pair it with Swap; the snapshot is served by /metrics and /stats
// until the next RecordIngest.
func (s *Service) RecordIngest(in IngestSnapshot) {
	s.ingest.Store(&in)
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "ingest recorded",
		slog.Int64("statements", in.Statements),
		slog.Int64("bytes", in.Bytes),
		slog.Duration("wall", in.Wall),
		slog.Duration("simOverlapped", in.SimOverlapped))
}

// Ingest returns the last recorded load snapshot, or nil if none.
func (s *Service) Ingest() *IngestSnapshot { return s.ingest.Load() }

// Swap atomically replaces the served dataset: dictionary, estimator and
// targets are installed together with a fresh plan cache (plans compiled
// against the old dictionary are meaningless in the new ID space).
// Executions that resolved the old snapshot — including every in-flight
// query and every outstanding Prepared handle — finish against it
// unchanged; requests arriving after Swap returns see only the new data.
// The admission pool and service counters carry across.
func (s *Service) Swap(dict rdf.Dict, est *bgp.Estimator, targets ...Target) error {
	sn, err := newSnapshot(dict, est, s.cfg.CacheSize, targets)
	if err != nil {
		return err
	}
	_, v := s.installSnapshot(sn, VersionEntry{Kind: VersionReload})
	s.metrics.swapped()
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "dataset swapped",
		slog.Int("targets", len(targets)),
		slog.Uint64("version", v))
	return nil
}

// Tracer returns the service's tracer, nil when tracing is disabled.
func (s *Service) Tracer() *trace.Tracer { return s.cfg.Tracer }

// Logger returns the service's structured logger (never nil — a discard
// logger when none was configured).
func (s *Service) Logger() *slog.Logger { return s.log }

// TraceStart opens a request-scoped trace named name, honouring an
// incoming W3C traceparent header when given (minting a fresh trace ID
// otherwise), and returns the derived context plus a finish function.
// When tracing is disabled the trace is nil, the context is returned
// unchanged and finish is a no-op; callers need no nil checks.
// finish(err) ends the root span and commits the trace to the tracer's
// ring; head-unsampled traces still record spans so that finish can
// force retention when the request errored or ran at or above
// SlowQueryThreshold — the tail that matters is always captured.
func (s *Service) TraceStart(ctx context.Context, name, traceparent string) (context.Context, *trace.Trace, func(error)) {
	if s.cfg.Tracer == nil {
		return ctx, nil, func(error) {}
	}
	tr, root := s.cfg.Tracer.StartRequest(name, traceparent)
	ctx = trace.NewContext(ctx, tr, root.ID())
	start := time.Now()
	finish := func(err error) {
		if err != nil {
			root.SetError(err)
		}
		root.End()
		latency := time.Since(start)
		force := err != nil ||
			(s.cfg.SlowQueryThreshold > 0 && latency >= s.cfg.SlowQueryThreshold)
		s.cfg.Tracer.Finish(tr, force)
	}
	return ctx, tr, finish
}

// Systems returns the current snapshot's target names, sorted.
func (s *Service) Systems() []string {
	return append([]string(nil), s.snap.Load().names...)
}

// Targets returns the current snapshot's serving targets — the name and
// physical source of each scheme as this instant's readers see them
// (overlays after a commit, rebuilt tables after a compaction or reload).
// The mutation benchmark's byte-identity guard runs one compiled plan
// directly against these and against schemes rebuilt from scratch.
func (s *Service) Targets() []Target {
	return append([]Target(nil), s.snap.Load().targets...)
}

// DefaultSystem returns the first target's name (declaration order) in the
// current snapshot — the system /query falls back to when none is named.
func (s *Service) DefaultSystem() string {
	return s.snap.Load().targets[0].Name
}

// Dict returns the current snapshot's dictionary. Results carry the
// dictionary of the snapshot they executed on, so DecodeRows stays correct
// across swaps; this accessor is for callers interning or inspecting terms
// themselves.
func (s *Service) Dict() rdf.Dict { return s.snap.Load().dict }

// Prepared is a compiled query handle: an immutable, scheme-independent
// plan plus its output schema, pinned to the dataset snapshot it was
// compiled on. Executing a Prepared — whether obtained from Prepare or
// from a cache hit inside ExecText — never parses or orders joins again,
// and always runs on its own snapshot even after a Swap (re-Prepare to
// move to the new dataset).
type Prepared struct {
	// Text is the canonical query text, the plan-cache key.
	Text string
	// Compiled is the compiler's output: plan root, column names, count-
	// column markers, join order and cost diagnostics.
	Compiled *bgp.Compiled

	// fp is the workload fingerprint of Text, hashed once at compile time
	// rather than per execution.
	fp   string
	snap *snapshot
}

// Prepare compiles text (or returns the cached compilation) and installs
// it in the plan cache. The returned handle can be executed any number of
// times on any target of the snapshot it was prepared against.
func (s *Service) Prepare(text string) (*Prepared, error) {
	p, _, err := s.prepare(context.Background(), s.snap.Load(), text)
	return p, err
}

// prepare additionally reports whether the plan came from the cache (or
// coalesced onto a concurrent compilation — either way parse and join
// ordering were skipped). A failed compilation counts into the error
// metrics here, so Prepare and ExecText agree on what Stats().Errors
// means. A traced request records the cache consultation as a
// "plan.cache" span; a miss nests the compiler's parse and plan spans
// under it (followers coalescing onto a concurrent leader get only the
// cache span — the compile work happens on the leader's trace).
func (s *Service) prepare(ctx context.Context, sn *snapshot, text string) (*Prepared, bool, error) {
	ctx, sp := trace.StartSpan(ctx, "plan.cache")
	canon := bgp.CanonicalText(text)
	p, cached, err := sn.cache.do(canon, func() (*Prepared, error) {
		if s.compileHook != nil {
			s.compileHook()
		}
		// Compile the client's original text, not the canonical key: the
		// token streams are identical, but error positions must point into
		// the text the client actually sent.
		c, err := bgp.CompileTextCtx(ctx, text, sn.dict, sn.est)
		if err != nil {
			return nil, err
		}
		return &Prepared{Text: canon, Compiled: c, fp: Fingerprint(canon), snap: sn}, nil
	})
	sp.SetAttr(trace.Bool("cached", cached))
	if err != nil {
		sp.SetError(err)
		sp.End()
		s.metrics.failed(ErrorClass(err))
		return nil, false, err
	}
	sp.End()
	return p, cached, nil
}

// ExecOpts carries per-execution options beyond the query text and target.
type ExecOpts struct {
	// Profile turns on per-operator profiling (EXPLAIN ANALYZE): the result
	// carries a profile tree with measured rows, simulated CPU/IO charges,
	// host time and peak memory per operator, annotated with the planner's
	// cardinality estimates. Result rows are byte-identical either way —
	// profiling only observes.
	Profile bool
}

// Result is one executed query with its per-query metrics.
type Result struct {
	// System is the target the query ran on.
	System string
	// Cols names the output columns; Rows holds the dictionary-encoded
	// result (counts excepted — see Counts).
	Cols []string
	Rows *rel.Rel
	// Counts marks output columns holding aggregate counts (plain numbers
	// rather than dictionary identifiers).
	Counts map[string]bool
	// Cached reports whether the plan came from the cache: a true value
	// means this execution skipped parsing and join ordering.
	Cached bool
	// Queued is the admission wait; Latency the total host time including
	// the wait (compilation excluded — prepare happens before admission).
	Queued  time.Duration
	Latency time.Duration
	// Profile is the per-operator EXPLAIN ANALYZE tree, present when the
	// execution ran with ExecOpts.Profile. Its estimates are the plan's own
	// (Compiled.EstRows): the figures its join order was chosen on.
	Profile *core.OpProfile
	// TraceID is the request's trace ID in hex when the request was
	// traced (see Config.Tracer and TraceStart) — the key that joins this
	// result with /debug/traces, the slow log and the structured log.
	TraceID string
	// Fingerprint is the query's workload fingerprint — the hash of the
	// canonical query text that keys the workload registry, so a client
	// can join its response with /debug/workload.
	Fingerprint string
	// Version is the dataset version of the snapshot the query executed on
	// — the read half of the snapshot-isolation contract: rows are exactly
	// the state this version's commit installed.
	Version uint64

	// dict decodes this result: the dictionary of the snapshot the query
	// executed on, immune to concurrent swaps.
	dict rdf.Dict
}

// ExecText prepares (through the cache) and executes text on the named
// target — the serving fast path: one map lookup replaces parse and join
// ordering when the query has been seen before. The snapshot is resolved
// once up front, so a concurrent Swap never splits one request across two
// datasets. The target is validated first, so requests bound for an
// unknown system never pay compilation or occupy cache entries.
func (s *Service) ExecText(ctx context.Context, text, system string) (*Result, error) {
	return s.ExecTextOpts(ctx, text, system, ExecOpts{})
}

// ExecTextOpts is ExecText with per-execution options (profiling).
func (s *Service) ExecTextOpts(ctx context.Context, text, system string, opt ExecOpts) (*Result, error) {
	sn := s.snap.Load()
	ti, err := s.target(sn, system)
	if err != nil {
		return nil, err
	}
	p, cached, err := s.prepare(ctx, sn, text)
	if err != nil {
		return nil, err
	}
	return s.exec(ctx, sn, p, ti, cached, opt)
}

// Exec executes a prepared handle on the named target of the handle's own
// snapshot. The result is marked Cached: the handle exists, so parse and
// ordering are paid off.
func (s *Service) Exec(ctx context.Context, p *Prepared, system string) (*Result, error) {
	return s.ExecOptions(ctx, p, system, ExecOpts{})
}

// ExecOptions is Exec with per-execution options (profiling).
func (s *Service) ExecOptions(ctx context.Context, p *Prepared, system string, opt ExecOpts) (*Result, error) {
	sn := p.snap
	if sn == nil {
		sn = s.snap.Load()
	}
	ti, err := s.target(sn, system)
	if err != nil {
		return nil, err
	}
	return s.exec(ctx, sn, p, ti, true, opt)
}

// target resolves a system name, counting and typing the failure.
func (s *Service) target(sn *snapshot, system string) (int, error) {
	ti, ok := sn.byName[system]
	if !ok {
		s.metrics.failed(ErrClassUnknownSystem)
		return 0, &UnknownSystemError{System: system, Known: append([]string(nil), sn.names...)}
	}
	return ti, nil
}

// queryEvent is the one record of a finished execution — successful or
// failed after compiling. exec builds it once and observe fans it out to
// every sink (service counters, workload registry, slow/error ring, the
// execute span, the structured log), so the sinks cannot disagree about
// what happened. It is immutable once built, apart from the memoized plan
// text.
type queryEvent struct {
	when        time.Time // when the execution finished
	traceID     string    // "" when the request was untraced
	fingerprint string
	text        string // canonical query text
	system      string
	version     uint64 // dataset version the execution ran on
	cached      bool
	queued      time.Duration
	latency     time.Duration
	rows        int
	err         error
	class       string // error class, "" on success
	profile     *core.OpProfile

	root core.Node
	dict rdf.Dict
	plan string
}

// term resolves plan constants through the dictionary of the snapshot the
// query ran on.
func (e *queryEvent) term() func(rdf.ID) string { return termFunc(e.dict) }

// planText renders the compiled plan on first use: only a new registry
// entry and a slow/error ring entry need it, so most events never pay.
func (e *queryEvent) planText() string {
	if e.plan == "" {
		e.plan = core.FormatPlan(e.root, e.term())
	}
	return e.plan
}

func (s *Service) exec(ctx context.Context, sn *snapshot, p *Prepared, ti int, cached bool, opt ExecOpts) (*Result, error) {
	t := sn.targets[ti]
	reqTrace, _ := trace.FromContext(ctx)
	start := time.Now()
	// Admission: block until a slot frees or the request context ends. The
	// up-front check makes an already-ended context reject deterministically
	// (a two-way select with both cases ready picks at random).
	if err := ctx.Err(); err != nil {
		s.metrics.rejected()
		return nil, err
	}
	_, waitSpan := trace.StartSpan(ctx, "queue.wait")
	s.metrics.waitStart()
	select {
	case s.sem <- struct{}{}:
		s.metrics.waitEnd()
		waitSpan.End()
	case <-ctx.Done():
		s.metrics.waitEnd()
		s.metrics.rejected()
		waitSpan.SetError(ctx.Err())
		waitSpan.End()
		return nil, ctx.Err()
	}
	queued := time.Since(start)
	s.metrics.admitted(queued)
	defer func() {
		s.metrics.released()
		<-s.sem
	}()
	execCtx, execSpan := trace.StartSpan(ctx, "execute")
	config := "pipelined"
	if s.cfg.Materialize {
		config = "drained"
	}
	execSpan.SetAttr(trace.String("system", t.Name), trace.String("configuration", config),
		trace.Int("version", int64(sn.version)))
	out, _, tr, err := p.Compiled.Execute(execCtx, t.Src, core.ExecOptions{
		Streaming: !s.cfg.Materialize,
		Profile:   opt.Profile,
	})
	latency := time.Since(start)
	ev := queryEvent{
		when:        start.Add(latency),
		fingerprint: p.fp,
		text:        p.Text,
		system:      t.Name,
		version:     sn.version,
		cached:      cached,
		queued:      queued,
		latency:     latency,
		err:         err,
		root:        p.Compiled.Root,
		dict:        sn.dict,
	}
	if reqTrace != nil {
		ev.traceID = reqTrace.ID().String()
	}
	if err != nil {
		ev.class = ErrorClass(err)
	} else {
		ev.rows = out.Len()
		if opt.Profile && tr != nil && tr.Profile != nil {
			ev.profile = tr.Profile
			ev.profile.AnnotateEstimates(p.Compiled.EstRows)
		}
	}
	s.observe(ctx, &ev, reqTrace, execSpan)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", t.Name, err)
	}
	return &Result{
		System:      t.Name,
		Cols:        p.Compiled.Cols,
		Rows:        out,
		Counts:      p.Compiled.Counts,
		Cached:      cached,
		Queued:      queued,
		Latency:     latency,
		Profile:     ev.profile,
		TraceID:     ev.traceID,
		Fingerprint: ev.fingerprint,
		Version:     sn.version,
		dict:        sn.dict,
	}, nil
}

// observe is the single post-execution tail: it hands one event to the
// five sinks in a fixed order and ends the execute span. Errored
// executions always enter the ring — a query that died is at least as
// interesting as one that was merely slow — served ones only at or above
// SlowQueryThreshold.
func (s *Service) observe(ctx context.Context, ev *queryEvent, reqTrace *trace.Trace, span *trace.Span) {
	failed := ev.err != nil
	slow := !failed && s.cfg.SlowQueryThreshold > 0 && ev.latency >= s.cfg.SlowQueryThreshold
	ring := s.slow != nil && (failed || slow)

	if failed {
		span.SetError(ev.err)
		s.metrics.failed(ev.class)
	} else {
		span.SetAttr(trace.Int("rows", int64(ev.rows)))
		s.metrics.served(ev.system, ev.latency, int64(ev.rows), ev.cached, ev.profile != nil)
	}
	// The registry's reading of this shape (execution count, p99) is context
	// for a reader of the span or the ring entry; the p99 costs a sketch
	// query, so it is computed only when one of the two will carry it.
	var fpCount int64
	var fpP99 time.Duration
	if s.wl != nil {
		fpCount, fpP99 = s.wl.observe(ev, span != nil || ring)
		if span != nil { // attribute values are rendered eagerly
			span.SetAttr(trace.String("fingerprint", ev.fingerprint),
				trace.Int("fingerprint.count", fpCount),
				trace.Int("fingerprint.p99Ns", int64(fpP99)))
		}
	}
	span.End()
	// Bridge the per-operator profile into the trace: the executor already
	// measured every operator, so a profiled, traced request yields a full
	// operator-level trace for free.
	if reqTrace != nil && ev.profile != nil {
		bridgeProfile(reqTrace, span.ID(), ev.profile, ev.term())
	}

	level, msg := slog.LevelDebug, "query served"
	errText := ""
	switch {
	case failed:
		level, msg, errText = slog.LevelWarn, "query failed", ev.err.Error()
	case slow:
		level, msg = slog.LevelInfo, "slow query"
		s.metrics.slow()
	}
	if ring {
		s.slow.Add(SlowEntry{
			When:             ev.when,
			Query:            ev.text,
			System:           ev.system,
			Version:          ev.version,
			Rows:             ev.rows,
			Cached:           ev.cached,
			Queued:           ev.queued,
			Latency:          ev.latency,
			Plan:             ev.planText(),
			Profile:          profileJSON(ev.profile, ev.term()),
			TraceID:          ev.traceID,
			Fingerprint:      ev.fingerprint,
			FingerprintCount: fpCount,
			FingerprintP99:   fpP99,
			Error:            errText,
			Class:            ev.class,
		})
	}
	if !s.log.Enabled(ctx, level) {
		return
	}
	attrs := []slog.Attr{
		slog.String("traceId", ev.traceID),
		slog.String("fingerprint", ev.fingerprint),
		slog.String("system", ev.system),
		slog.Uint64("version", ev.version),
		slog.Int("rows", ev.rows),
		slog.Bool("cached", ev.cached),
		slog.Duration("queued", ev.queued),
		slog.Duration("latency", ev.latency),
	}
	switch {
	case failed:
		attrs = append(attrs, slog.String("class", ev.class), slog.String("error", errText))
	case slow:
		attrs = append(attrs,
			slog.Int64("fingerprintCount", fpCount),
			slog.Duration("fingerprintP99", fpP99),
			slog.String("query", ev.text))
	}
	s.log.LogAttrs(ctx, level, msg, attrs...)
}

// termFunc adapts a dictionary to the plan formatters' term resolver.
func termFunc(dict rdf.Dict) func(rdf.ID) string {
	if dict == nil {
		return nil
	}
	return func(id rdf.ID) string { return dict.Term(id).String() }
}

// SlowQueries returns the slow-query log's entries, newest first; empty
// when the log is disabled.
func (s *Service) SlowQueries() []SlowEntry {
	if s.slow == nil {
		return nil
	}
	return s.slow.Entries()
}

// UnknownSystemError reports an Exec against a target the service does not
// wrap.
type UnknownSystemError struct {
	System string
	Known  []string
}

func (e *UnknownSystemError) Error() string {
	return fmt.Sprintf("serve: unknown system %q (have %v)", e.System, e.Known)
}

// DecodeRows renders up to limit rows of a result through the dictionary
// of the snapshot the result executed on: IRIs and literals in N-Triples
// syntax, aggregate counts as plain numbers, NULL (unbound OPTIONAL
// variables) as the empty string — unambiguous, because an empty literal
// renders as `""`. limit < 0 decodes everything.
func (s *Service) DecodeRows(r *Result, limit int) [][]string {
	nullable := s.DecodeRowsNull(r, limit)
	out := make([][]string, len(nullable))
	for i, row := range nullable {
		cells := make([]string, len(row))
		for j, c := range row {
			if c != nil {
				cells[j] = *c
			}
		}
		out[i] = cells
	}
	return out
}

// DecodeRowsNull is DecodeRows with NULL cells kept distinguishable: an
// unbound (rdf.NoID) value decodes to nil, which the HTTP layer encodes as
// JSON null.
func (s *Service) DecodeRowsNull(r *Result, limit int) [][]*string {
	dict := r.dict
	if dict == nil {
		dict = s.Dict()
	}
	n := r.Rows.Len()
	if limit >= 0 && n > limit {
		n = limit
	}
	out := make([][]*string, n)
	for i := 0; i < n; i++ {
		row := r.Rows.Row(i)
		cells := make([]*string, len(row))
		for j, v := range row {
			if j < len(r.Cols) && r.Counts[r.Cols[j]] {
				c := fmt.Sprint(v)
				cells[j] = &c
				continue
			}
			if rdf.ID(v) == rdf.NoID {
				continue // NULL: unbound OPTIONAL variable
			}
			c := dict.Term(rdf.ID(v)).String()
			cells[j] = &c
		}
		out[i] = cells
	}
	return out
}

// Stats merges the service counters and the current snapshot's plan-cache
// counters into one snapshot.
func (s *Service) Stats() Snapshot {
	snap := s.metrics.snapshot()
	sn := s.snap.Load()
	snap.Cache = sn.cache.stats()
	snap.DatasetVersion = sn.version
	return snap
}
