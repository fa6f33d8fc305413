package serve

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blackswan/internal/bgp"
)

// Error classes: every failed request falls into exactly one, mirroring the
// HTTP status mapping (statusOf). The split makes "clients sending garbage",
// "clients naming missing systems", "clients giving up" and "the engine
// failing" distinguishable on a dashboard, where one merged counter hides
// whose fault a spike is.
const (
	// ErrClassParse: the query text was rejected — parse errors, unknown
	// terms, compile errors. The client's fault (HTTP 400).
	ErrClassParse = "parse"
	// ErrClassUnknownSystem: the named target does not exist (HTTP 404).
	ErrClassUnknownSystem = "unknown_system"
	// ErrClassCanceled: the request context ended — cancelled by the client
	// or expired — before or during execution (HTTP 504).
	ErrClassCanceled = "canceled"
	// ErrClassExec: the engine failed on a valid request (HTTP 500).
	ErrClassExec = "exec"
)

// ErrorClass classifies a service error into one of the ErrClass constants.
func ErrorClass(err error) string {
	var pe *bgp.ParseError
	var ue *bgp.UnknownTermError
	var ce *bgp.CompileError
	var se *UnknownSystemError
	switch {
	case errors.As(err, &pe), errors.As(err, &ue), errors.As(err, &ce):
		return ErrClassParse
	case errors.As(err, &se):
		return ErrClassUnknownSystem
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ErrClassCanceled
	default:
		return ErrClassExec
	}
}

// Metrics holds the service-level counters: lock-free atomics on the hot
// path, snapshotted for reporting. Latencies feed a power-of-two histogram
// (bucket i covers [2^(i-1), 2^i) nanoseconds), precise enough for the
// p50/p95/p99 a serving dashboard wants without per-request allocation;
// exact percentiles for benchmarking come from the bench harness, which
// records every latency itself.
type Metrics struct {
	queries  atomic.Int64 // successfully served executions
	cachedQ  atomic.Int64 // of which ran a cached plan
	errors   atomic.Int64 // failed prepares or executions (all classes)
	rejects  atomic.Int64 // admissions abandoned (context ended waiting)
	rows     atomic.Int64 // total result rows served
	inFlight atomic.Int64 // currently admitted executions
	maxIn    atomic.Int64 // high-water mark of inFlight
	waiting  atomic.Int64 // currently blocked in admission (queue depth)
	queueNs  atomic.Int64 // summed admission wait ns of admitted executions
	latSum   atomic.Int64 // summed latency ns of served executions
	swaps    atomic.Int64 // dataset snapshots installed via Swap
	commits  atomic.Int64 // write transactions committed (Mutator.ApplyUpdate)
	compacts atomic.Int64 // commits whose delta was folded into a rebuild
	slowQ    atomic.Int64 // served executions recorded in the slow-query log
	profiled atomic.Int64 // served executions that carried a profile
	lat      [64]atomic.Int64

	// Per-class error counters; errors above stays the total.
	errParse    atomic.Int64
	errUnknown  atomic.Int64
	errCanceled atomic.Int64
	errExec     atomic.Int64

	// Per-system counters: a mutex-guarded map, off the lock-free hot path
	// only by one short critical section per served query. The key set is
	// tiny (the four scheme names), so contention is negligible.
	sysMu sync.Mutex
	sys   map[string]*systemCounters
}

// systemCounters is one target's share of the served traffic. lat is the
// same power-of-two latency histogram the service keeps globally, kept
// per system so /metrics can expose per-scheme latency distributions —
// the serving-time analogue of the paper's per-scheme comparison.
type systemCounters struct {
	queries int64
	rows    int64
	latNs   int64
	lat     [64]int64
}

func (m *Metrics) swapped() { m.swaps.Add(1) }

func (m *Metrics) committed() { m.commits.Add(1) }
func (m *Metrics) compacted() { m.compacts.Add(1) }

func (m *Metrics) admitted(queued time.Duration) {
	if ns := queued.Nanoseconds(); ns > 0 {
		m.queueNs.Add(ns)
	}
	n := m.inFlight.Add(1)
	for {
		max := m.maxIn.Load()
		if n <= max || m.maxIn.CompareAndSwap(max, n) {
			return
		}
	}
}

func (m *Metrics) waitStart() { m.waiting.Add(1) }
func (m *Metrics) waitEnd()   { m.waiting.Add(-1) }

func (m *Metrics) released() { m.inFlight.Add(-1) }
func (m *Metrics) rejected() { m.rejects.Add(1) }
func (m *Metrics) slow()     { m.slowQ.Add(1) }

// failed counts one error into its class counter and the total.
func (m *Metrics) failed(class string) {
	m.errors.Add(1)
	switch class {
	case ErrClassParse:
		m.errParse.Add(1)
	case ErrClassUnknownSystem:
		m.errUnknown.Add(1)
	case ErrClassCanceled:
		m.errCanceled.Add(1)
	default:
		m.errExec.Add(1)
	}
}

func (m *Metrics) served(system string, latency time.Duration, rows int64, cached, hasProfile bool) {
	m.queries.Add(1)
	if cached {
		m.cachedQ.Add(1)
	}
	if hasProfile {
		m.profiled.Add(1)
	}
	m.rows.Add(rows)
	ns := latency.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	m.latSum.Add(ns)
	m.lat[bits.Len64(uint64(ns))].Add(1)

	m.sysMu.Lock()
	if m.sys == nil {
		m.sys = make(map[string]*systemCounters)
	}
	sc := m.sys[system]
	if sc == nil {
		sc = &systemCounters{}
		m.sys[system] = sc
	}
	sc.queries++
	sc.rows += rows
	sc.latNs += ns
	sc.lat[bits.Len64(uint64(ns))]++
	m.sysMu.Unlock()
}

// Snapshot is one consistent-enough reading of the service counters (each
// counter is read atomically; the set is not a transaction).
type Snapshot struct {
	Queries     int64            `json:"queries"`
	CachedPlans int64            `json:"cachedPlanExecutions"`
	Profiled    int64            `json:"profiledExecutions"`
	Errors      int64            `json:"errors"`
	ErrorsBy    map[string]int64 `json:"errorsByClass,omitempty"`
	Rejected    int64            `json:"rejected"`
	Rows        int64            `json:"rows"`
	InFlight    int64            `json:"inFlight"`
	MaxInFlight int64            `json:"maxInFlight"`
	Waiting     int64            `json:"admissionWaiting"`
	QueuedSum   time.Duration    `json:"queuedSumNs"`
	Swaps       int64            `json:"swaps"`
	Commits     int64            `json:"commits"`
	Compactions int64            `json:"compactions"`
	// DatasetVersion is the version of the snapshot currently serving new
	// requests, filled by Service.Stats (it lives on the snapshot, not in
	// the counters).
	DatasetVersion uint64           `json:"datasetVersion"`
	SlowQueries    int64            `json:"slowQueries"`
	MeanLatency    time.Duration    `json:"meanLatencyNs"`
	P50            time.Duration    `json:"p50Ns"`
	P95            time.Duration    `json:"p95Ns"`
	P99            time.Duration    `json:"p99Ns"`
	LatencySum     time.Duration    `json:"latencySumNs"`
	Systems        []SystemSnapshot `json:"perSystem,omitempty"`
	Cache          CacheStats       `json:"cache"`
}

// SystemSnapshot is one target's served-traffic counters, sorted by name in
// Snapshot.Systems for stable output.
type SystemSnapshot struct {
	System     string        `json:"system"`
	Queries    int64         `json:"queries"`
	Rows       int64         `json:"rows"`
	LatencySum time.Duration `json:"latencySumNs"`
	// LatHist is the per-system power-of-two latency histogram, rendered
	// by /metrics; omitted from /stats JSON (64 mostly-zero buckets per
	// system would dominate the payload).
	LatHist [64]int64 `json:"-"`
}

func (m *Metrics) snapshot() Snapshot {
	var hist [64]int64
	var total int64
	for i := range m.lat {
		hist[i] = m.lat[i].Load()
		total += hist[i]
	}
	s := Snapshot{
		Queries:     m.queries.Load(),
		CachedPlans: m.cachedQ.Load(),
		Profiled:    m.profiled.Load(),
		Errors:      m.errors.Load(),
		Rejected:    m.rejects.Load(),
		Rows:        m.rows.Load(),
		InFlight:    m.inFlight.Load(),
		MaxInFlight: m.maxIn.Load(),
		Waiting:     m.waiting.Load(),
		QueuedSum:   time.Duration(m.queueNs.Load()),
		Swaps:       m.swaps.Load(),
		Commits:     m.commits.Load(),
		Compactions: m.compacts.Load(),
		SlowQueries: m.slowQ.Load(),
		LatencySum:  time.Duration(m.latSum.Load()),
		ErrorsBy: map[string]int64{
			ErrClassParse:         m.errParse.Load(),
			ErrClassUnknownSystem: m.errUnknown.Load(),
			ErrClassCanceled:      m.errCanceled.Load(),
			ErrClassExec:          m.errExec.Load(),
		},
	}
	if total > 0 {
		s.MeanLatency = time.Duration(m.latSum.Load() / total)
		s.P50 = histQuantile(&hist, total, 0.50)
		s.P95 = histQuantile(&hist, total, 0.95)
		s.P99 = histQuantile(&hist, total, 0.99)
	}
	m.sysMu.Lock()
	for name, sc := range m.sys {
		s.Systems = append(s.Systems, SystemSnapshot{
			System:     name,
			Queries:    sc.queries,
			Rows:       sc.rows,
			LatencySum: time.Duration(sc.latNs),
			LatHist:    sc.lat,
		})
	}
	m.sysMu.Unlock()
	sort.Slice(s.Systems, func(i, j int) bool { return s.Systems[i].System < s.Systems[j].System })
	return s
}

// histSnapshot copies the latency histogram for the Prometheus renderer.
func (m *Metrics) histSnapshot() [64]int64 {
	var hist [64]int64
	for i := range m.lat {
		hist[i] = m.lat[i].Load()
	}
	return hist
}

// histQuantile returns the upper bound of the bucket the q-quantile lands
// in — a ≤2× overestimate, stable and monotone. The quantile is the
// nearest-rank one: the ceil(q·total)-th smallest sample.
func histQuantile(hist *[64]int64, total int64, q float64) time.Duration {
	want := int64(math.Ceil(q * float64(total)))
	if want < 1 {
		want = 1
	}
	var seen int64
	for i, n := range hist {
		seen += n
		if seen >= want {
			if i >= 63 {
				return time.Duration(int64(1) << 62)
			}
			return time.Duration(int64(1) << i)
		}
	}
	return 0
}
