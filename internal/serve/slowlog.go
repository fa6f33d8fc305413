package serve

import (
	"time"

	"blackswan/internal/trace"
)

// DefaultSlowLogSize is the slow-query ring capacity when
// Config.SlowLogSize is 0.
const DefaultSlowLogSize = 128

// SlowEntry is one recorded slow query: enough to reproduce it (canonical
// text, target system) and enough to diagnose it (latency breakdown, plan,
// and — when the request was profiled — the full per-operator profile).
// Errored executions land here too (Error/Class set, Rows zero), so the
// ring is also the service's recent-failures buffer.
type SlowEntry struct {
	// When the query finished.
	When time.Time `json:"when"`
	// Query is the canonical text, the same key the plan cache uses.
	Query string `json:"query"`
	// System names the target the query ran on.
	System string `json:"system"`
	// Version is the dataset version of the snapshot the query ran on.
	Version uint64 `json:"version"`
	// Rows is the full result size (not the decoded/truncated count).
	Rows int `json:"rows"`
	// Cached reports whether the plan came from the cache.
	Cached bool `json:"cached"`
	// Queued is the admission wait; Latency the total including the wait.
	Queued  time.Duration `json:"queuedNs"`
	Latency time.Duration `json:"latencyNs"`
	// Plan is the compiled plan rendered as indented text.
	Plan string `json:"plan"`
	// Profile is the per-operator profile when the request ran with
	// profiling on, nil otherwise — the log never re-runs a query.
	Profile *ProfileNode `json:"profile,omitempty"`
	// TraceID joins this entry with /debug/traces and the structured log
	// when the request was traced.
	TraceID string `json:"traceId,omitempty"`
	// Fingerprint keys this query's aggregate in the workload registry
	// (/debug/workload); FingerprintCount and FingerprintP99 are the
	// registry's execution count and p99 latency for the shape at record
	// time — context for whether this slow execution is an outlier or the
	// shape's norm. Zero values when the registry is disabled.
	Fingerprint      string        `json:"fingerprint,omitempty"`
	FingerprintCount int64         `json:"fingerprintCount,omitempty"`
	FingerprintP99   time.Duration `json:"fingerprintP99Ns,omitempty"`
	// Error and Class are set on errored executions (the execution failed
	// after compiling — see ErrorClass for the class vocabulary).
	Error string `json:"error,omitempty"`
	Class string `json:"errorClass,omitempty"`
}

// newSlowLog returns the slow-query ring: capacity entries, or
// DefaultSlowLogSize when capacity is not positive. Only queries already
// past the threshold reach it, so the hot path never takes its lock.
func newSlowLog(capacity int) *trace.Ring[SlowEntry] {
	if capacity <= 0 {
		capacity = DefaultSlowLogSize
	}
	return trace.NewRing[SlowEntry](capacity)
}
