package serve

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"blackswan/internal/core"
	"blackswan/internal/sketch"
)

// The workload registry: the serving layer's per-query-shape introspection.
// Every execution — success or post-compile failure — is folded into an
// aggregate keyed by the query's fingerprint (a hash of the canonical
// text, the same normalization the plan cache keys on), so "what is this
// service actually serving, and which shapes hurt" is answerable live at
// /debug/workload without logging every request. Per fingerprint the
// registry keeps counts, rows, cache hits, error classes, per-system
// splits, and ε-approximate latency and queue-wait quantiles
// (internal/sketch's Greenwald-Khanna summaries, so memory stays O(1/ε)
// per entry no matter how long the service runs); profiled executions
// additionally fold every operator's estimated-vs-actual cardinality into
// per-operator q-error aggregates — the cardinality-drift feedback loop
// that tells the planner's estimator where it is wrong, per query shape,
// from live traffic.
//
// The entry map is bounded (Config.WorkloadCapacity): when full, the
// least-executed entry is evicted. Two SpaceSaving top-K counters (by
// execution count and by summed latency) survive eviction, so the top
// lists remain honest even for shapes whose detailed entries were evicted.
// Like the service counters — and unlike the plan cache — the registry
// deliberately survives Swap: the workload is a property of the clients,
// not of the dataset generation.
//
// Recording is observation-only: it reads the already-computed result
// metadata and profile, never touching rows or simulated charges. The
// observe experiment (internal/bench) enforces byte-identical rows,
// identical simulated charges and a bounded host-overhead ratio with the
// registry on.

// DefaultWorkloadCapacity is the registry's entry bound when
// Config.WorkloadCapacity is 0.
const DefaultWorkloadCapacity = 512

// workloadTopK bounds the eviction-surviving top-K counters.
const workloadTopK = 64

// Fingerprint returns the workload fingerprint of a canonical query text:
// FNV-1a 64-bit in fixed-width hex. Texts differing only in whitespace or
// comments share a fingerprint because the canonical text already
// normalizes them (see bgp.CanonicalText).
func Fingerprint(canon string) string {
	h := fnv.New64a()
	h.Write([]byte(canon))
	return fmt.Sprintf("%016x", h.Sum64())
}

// wlEntry is one fingerprint's aggregate.
type wlEntry struct {
	text      string
	plan      string
	count     int64
	cacheHits int64
	errors    int64
	errorsBy  map[string]int64
	rows      int64
	profiled  int64
	firstSeen time.Time
	lastSeen  time.Time
	latSumNs  int64
	lat       *sketch.Quantile
	queued    *sketch.Quantile
	systems   map[string]*wlSystem
	// ops holds one slot per plan node, by node number, folded under the
	// plan labels.
	ops    []wlOp
	labels []string
	// lastVersion is the dataset version of the shape's latest execution —
	// the join between the workload registry and the mutation path, so
	// per-shape drift (q-error) can be read against the version that
	// produced it.
	lastVersion uint64
}

// wlSystem is one fingerprint's per-target split.
type wlSystem struct {
	count    int64
	rows     int64
	latSumNs int64
}

// wlOp aggregates one plan node's estimated-vs-actual cardinality across a
// fingerprint's profiled executions (its label is the entry's, by node
// number). idx is the node's pre-order index in the profile tree of its
// first fold, the order the slots render in.
type wlOp struct {
	idx      int
	count    int64
	sumLogQ  float64 // sum of ln(q-error): geometric mean via exp(sum/count)
	maxQ     float64
	lastEst  float64
	lastRows int64
}

// workloadReg is the registry. One mutex guards it: the record path takes
// it once per execution for a handful of counter updates and two sketch
// insertions, far off the executor's critical path.
type workloadReg struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*wlEntry
	evicted  int64
	observed int64
	byCount  *sketch.TopK
	byTime   *sketch.TopK
}

func newWorkloadReg(capacity int) *workloadReg {
	if capacity <= 0 {
		capacity = DefaultWorkloadCapacity
	}
	return &workloadReg{
		capacity: capacity,
		entries:  make(map[string]*wlEntry),
		byCount:  sketch.NewTopK(workloadTopK),
		byTime:   sketch.NewTopK(workloadTopK),
	}
}

// observe folds one execution into its fingerprint's aggregate and returns
// the shape's execution count including this one. The p99 latency — the
// compact reading the slow log and trace attributes embed — costs a sketch
// query, so it is computed only when wantP99 says someone will read it.
func (w *workloadReg) observe(ev *queryEvent, wantP99 bool) (count int64, p99 time.Duration) {
	latNs := ev.latency.Nanoseconds()
	if latNs < 0 {
		latNs = 0
	}
	rows := int64(ev.rows)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.observed++
	w.byCount.Observe(ev.fingerprint, 1)
	if latNs > 0 {
		w.byTime.Observe(ev.fingerprint, latNs)
	}
	e := w.entries[ev.fingerprint]
	if e == nil {
		if len(w.entries) >= w.capacity {
			w.evictColdest()
		}
		e = &wlEntry{
			text:      ev.text,
			plan:      ev.planText(),
			firstSeen: ev.when,
			lat:       sketch.NewQuantile(sketch.DefaultEpsilon),
			queued:    sketch.NewQuantile(sketch.DefaultEpsilon),
			systems:   make(map[string]*wlSystem),
		}
		w.entries[ev.fingerprint] = e
	}
	e.count++
	e.lastSeen = ev.when
	e.lastVersion = ev.version
	if ev.cached {
		e.cacheHits++
	}
	if ev.class != "" {
		e.errors++
		if e.errorsBy == nil {
			e.errorsBy = make(map[string]int64)
		}
		e.errorsBy[ev.class]++
	}
	e.rows += rows
	e.latSumNs += latNs
	e.lat.Add(float64(latNs))
	e.queued.Add(float64(ev.queued.Nanoseconds()))
	sys := e.systems[ev.system]
	if sys == nil {
		sys = &wlSystem{}
		e.systems[ev.system] = sys
	}
	sys.count++
	sys.rows += rows
	sys.latSumNs += latNs
	if ev.profile != nil {
		e.profiled++
		e.foldProfile(ev.profile, ev.compiled.Labels())
	}
	if wantP99 {
		p99 = time.Duration(e.lat.Query(0.99))
	}
	return e.count, p99
}

// evictColdest drops the least-executed entry (ties broken towards the
// least recently seen). Callers hold the mutex.
func (w *workloadReg) evictColdest() {
	var victim string
	var ve *wlEntry
	for fp, e := range w.entries {
		if ve == nil || e.count < ve.count ||
			(e.count == ve.count && e.lastSeen.Before(ve.lastSeen)) {
			victim, ve = fp, e
		}
	}
	if ve != nil {
		delete(w.entries, victim)
		w.evicted++
	}
}

// foldProfile walks a profiled execution's operator tree in pre-order and
// folds every node carrying a cardinality estimate into its slot's q-error
// aggregates. labels are the plan's, by node number: the same fingerprint
// recompiled to the same plan keeps accumulating, while a plan whose labels
// differ (another join order) restarts the slots.
func (e *wlEntry) foldProfile(prof *core.OpProfile, labels []string) {
	if !slices.Equal(e.labels, labels) {
		e.ops, e.labels = make([]wlOp, len(labels)), labels
	}
	idx := 0
	prof.Walk(func(p *core.OpProfile) {
		idx++
		if p.EstRows < 0 {
			return // no estimate attached: nothing to compare against
		}
		op := &e.ops[p.ID]
		if op.count == 0 {
			op.idx = idx
		}
		q := qErr(p.EstRows, p.Rows)
		op.count++
		op.sumLogQ += logQ(q)
		if q > op.maxQ {
			op.maxQ = q
		}
		op.lastEst = p.EstRows
		op.lastRows = int64(p.Rows)
	})
}

// qErr is the standard q-error: max(est/actual, actual/est) with both
// sides clamped to at least 1.
func qErr(est float64, rows int) float64 {
	a := float64(rows)
	if a < 1 {
		a = 1
	}
	if est < 1 {
		est = 1
	}
	if est > a {
		return est / a
	}
	return a / est
}

// logQ is ln(q) guarded against q < 1 noise.
func logQ(q float64) float64 {
	if q <= 1 {
		return 0
	}
	return math.Log(q)
}

// WorkloadQuery selects and orders the registry snapshot.
type WorkloadQuery struct {
	// Limit bounds the detailed entries returned (0 means
	// DefaultWorkloadLimit, negative means all).
	Limit int
	// By orders the entries: "time" (summed latency, the default),
	// "count", or "qerror" (maximum per-operator q-error).
	By string
	// System restricts the entries to fingerprints that executed on the
	// named target ("" keeps all).
	System string
}

// DefaultWorkloadLimit is the /debug/workload entry count when no limit
// parameter is given.
const DefaultWorkloadLimit = 20

// QuantileSummary is the JSON reading of one quantile sketch: ε-accurate
// p50/p90/p99 plus the exact extremes and count.
type QuantileSummary struct {
	Count int64         `json:"count"`
	P50   time.Duration `json:"p50Ns"`
	P90   time.Duration `json:"p90Ns"`
	P99   time.Duration `json:"p99Ns"`
	Max   time.Duration `json:"maxNs"`
}

// WorkloadSystem is one fingerprint's per-target split.
type WorkloadSystem struct {
	System     string        `json:"system"`
	Count      int64         `json:"count"`
	Rows       int64         `json:"rows"`
	LatencySum time.Duration `json:"latencySumNs"`
}

// WorkloadOp is one operator's cardinality-drift aggregate: how far the
// planner's estimate has strayed from the measured rows across this
// fingerprint's profiled executions. MeanQError is the geometric mean —
// the natural average for a ratio metric; MaxQError the worst case.
type WorkloadOp struct {
	Op         string  `json:"op"`
	Count      int64   `json:"count"`
	MeanQError float64 `json:"meanQError"`
	MaxQError  float64 `json:"maxQError"`
	LastEst    float64 `json:"lastEstRows"`
	LastRows   int64   `json:"lastRows"`
}

// WorkloadEntry is one fingerprint's full aggregate as served by
// /debug/workload.
type WorkloadEntry struct {
	Fingerprint string           `json:"fingerprint"`
	Query       string           `json:"query"`
	Plan        string           `json:"plan,omitempty"`
	Count       int64            `json:"count"`
	CacheHits   int64            `json:"cacheHits"`
	Errors      int64            `json:"errors,omitempty"`
	ErrorsBy    map[string]int64 `json:"errorsByClass,omitempty"`
	Rows        int64            `json:"rows"`
	Profiled    int64            `json:"profiled,omitempty"`
	FirstSeen   time.Time        `json:"firstSeen"`
	LastSeen    time.Time        `json:"lastSeen"`
	LastVersion uint64           `json:"lastVersion,omitempty"`
	LatencySum  time.Duration    `json:"latencySumNs"`
	Latency     QuantileSummary  `json:"latency"`
	Queued      QuantileSummary  `json:"queued"`
	MaxQError   float64          `json:"maxQError,omitempty"`
	Systems     []WorkloadSystem `json:"perSystem,omitempty"`
	Ops         []WorkloadOp     `json:"ops,omitempty"`
}

// WorkloadSnapshot is the /debug/workload payload: registry totals, the
// eviction-surviving top-K lists (by-time counts are summed nanoseconds),
// and the selected detailed entries.
type WorkloadSnapshot struct {
	Fingerprints int     `json:"fingerprints"`
	Capacity     int     `json:"capacity"`
	Evicted      int64   `json:"evicted"`
	Observations int64   `json:"observations"`
	Epsilon      float64 `json:"epsilon"`
	// TopByCount and TopByTime come from the SpaceSaving counters: Count
	// overestimates the true weight by at most Err, and entries evicted
	// from the detail map still appear here.
	TopByCount []sketch.Entry  `json:"topByCount,omitempty"`
	TopByTime  []sketch.Entry  `json:"topByTimeNs,omitempty"`
	Entries    []WorkloadEntry `json:"entries"`
}

// snapshot renders the registry under q. Quantile queries flush the
// sketches, so the whole read happens under the registry mutex.
func (w *workloadReg) snapshot(q WorkloadQuery) *WorkloadSnapshot {
	limit := q.Limit
	if limit == 0 {
		limit = DefaultWorkloadLimit
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := &WorkloadSnapshot{
		Fingerprints: len(w.entries),
		Capacity:     w.capacity,
		Evicted:      w.evicted,
		Observations: w.observed,
		Epsilon:      sketch.DefaultEpsilon,
		TopByCount:   w.byCount.Entries(),
		TopByTime:    w.byTime.Entries(),
		Entries:      []WorkloadEntry{},
	}
	for fp, e := range w.entries {
		if q.System != "" {
			if _, ok := e.systems[q.System]; !ok {
				continue
			}
		}
		out.Entries = append(out.Entries, e.render(fp))
	}
	less := func(i, j int) bool { return out.Entries[i].LatencySum > out.Entries[j].LatencySum }
	switch q.By {
	case "count":
		less = func(i, j int) bool { return out.Entries[i].Count > out.Entries[j].Count }
	case "qerror":
		less = func(i, j int) bool { return out.Entries[i].MaxQError > out.Entries[j].MaxQError }
	}
	sort.Slice(out.Entries, func(i, j int) bool {
		if less(i, j) != less(j, i) {
			return less(i, j)
		}
		return out.Entries[i].Fingerprint < out.Entries[j].Fingerprint
	})
	if limit >= 0 && len(out.Entries) > limit {
		out.Entries = out.Entries[:limit]
	}
	return out
}

// render converts one entry to its JSON form. Callers hold the mutex.
func (e *wlEntry) render(fp string) WorkloadEntry {
	we := WorkloadEntry{
		Fingerprint: fp,
		Query:       e.text,
		Plan:        e.plan,
		Count:       e.count,
		CacheHits:   e.cacheHits,
		Errors:      e.errors,
		Rows:        e.rows,
		Profiled:    e.profiled,
		FirstSeen:   e.firstSeen,
		LastSeen:    e.lastSeen,
		LastVersion: e.lastVersion,
		LatencySum:  time.Duration(e.latSumNs),
		Latency:     quantileSummary(e.lat),
		Queued:      quantileSummary(e.queued),
	}
	if len(e.errorsBy) > 0 {
		we.ErrorsBy = make(map[string]int64, len(e.errorsBy))
		for c, n := range e.errorsBy {
			we.ErrorsBy[c] = n
		}
	}
	for name, sys := range e.systems {
		we.Systems = append(we.Systems, WorkloadSystem{
			System:     name,
			Count:      sys.count,
			Rows:       sys.rows,
			LatencySum: time.Duration(sys.latSumNs),
		})
	}
	sort.Slice(we.Systems, func(i, j int) bool { return we.Systems[i].System < we.Systems[j].System })
	for _, i := range e.opsOrdered() {
		op := &e.ops[i]
		we.Ops = append(we.Ops, WorkloadOp{
			Op:         e.labels[i],
			Count:      op.count,
			MeanQError: math.Exp(op.sumLogQ / float64(op.count)),
			MaxQError:  op.maxQ,
			LastEst:    op.lastEst,
			LastRows:   op.lastRows,
		})
		if op.maxQ > we.MaxQError {
			we.MaxQError = op.maxQ
		}
	}
	return we
}

// opsOrdered returns the numbers of the folded slots in profile pre-order.
func (e *wlEntry) opsOrdered() []int {
	var ids []int
	for i := range e.ops {
		if e.ops[i].count > 0 {
			ids = append(ids, i)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(cmp.Compare(e.ops[a].idx, e.ops[b].idx), strings.Compare(e.labels[a], e.labels[b]))
	})
	return ids
}

func quantileSummary(s *sketch.Quantile) QuantileSummary {
	return QuantileSummary{
		Count: s.Count(),
		P50:   time.Duration(s.Query(0.50)),
		P90:   time.Duration(s.Query(0.90)),
		P99:   time.Duration(s.Query(0.99)),
		Max:   time.Duration(s.Max()),
	}
}

// Workload returns the registry snapshot selected by q, or nil when the
// registry is disabled (Config.WorkloadCapacity < 0).
func (s *Service) Workload(q WorkloadQuery) *WorkloadSnapshot {
	if s.wl == nil {
		return nil
	}
	return s.wl.snapshot(q)
}
