// Package trace is the request-scoped tracing substrate of the serving
// stack: a dependency-free span tracer that follows one request through
// HTTP ingress, admission queueing, the plan cache, BGP compilation and
// plan execution, and joins every other observability surface — the
// structured log, the slow-query ring, the Prometheus counters — on one
// key, the trace ID.
//
// The design is deliberately small and stdlib-only:
//
//   - a Span is a named window of host time with a parent link and
//     key/value attributes; spans of one request collect into a Trace;
//   - the Trace travels in the request context (NewContext/FromContext),
//     so any layer can open child spans without new plumbing — StartSpan
//     is nil-safe and costs a pointer check when the request is untraced;
//   - trace and span IDs follow W3C Trace Context: an incoming
//     `traceparent` header is parsed and honoured (ID and sampling flag),
//     and fresh IDs are minted when absent, so blackswan participates in
//     distributed traces without carrying an OpenTelemetry dependency;
//   - sampling is head-based and probabilistic — the decision is a pure
//     function of the trace ID, so it is deterministic under a seeded
//     tracer and consistent across replicas looking at the same trace —
//     with a tail-capture escape hatch: Finish(force=true) keeps a trace
//     the head decision would have dropped (slow or errored requests);
//   - finished traces land in a fixed-capacity ring (ring.go), served by
//     the HTTP layer at /debug/traces and exportable as OTLP-shaped JSON
//     (otlp.go).
//
// Tracing is observation-only by construction: nothing in this package
// touches result rows or the simulated clocks, and the observe experiment
// (swanbench observe) guards the host overhead ratio.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	mrand "math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one request trace: 16 bytes, hex-rendered, never
// all-zero for a valid trace (the W3C invalid value).
type TraceID [16]byte

// SpanID identifies one span within a trace: 8 bytes, hex-rendered,
// never all-zero when valid.
type SpanID [8]byte

// String renders the ID as 32 lowercase hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports the W3C invalid (all-zero) trace ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 16 lowercase hex characters.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports the W3C invalid (all-zero) span ID.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// ParseTraceID parses 32 hex characters into a TraceID, rejecting the
// all-zero value.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 2*len(id) {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// ParseSpanID parses 16 hex characters into a SpanID, rejecting the
// all-zero value.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 2*len(id) {
		return SpanID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return SpanID{}, false
	}
	return id, true
}

// FlagSampled is the W3C trace-flags bit carrying the head sampling
// decision.
const FlagSampled byte = 0x01

// ParseTraceparent parses a W3C `traceparent` header value
// (version-traceid-parentid-flags, e.g.
// "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"). Only
// version 00 fields are interpreted; higher versions are accepted if
// their first four fields parse (per the spec's forward-compatibility
// rule), "ff" is rejected. The hex fields must be lowercase, as the W3C
// grammar (HEXDIGLC) demands — so an accepted version-00 header is exactly
// what FormatTraceparent renders from its parts. ok is false for anything
// malformed.
func ParseTraceparent(h string) (tid TraceID, parent SpanID, flags byte, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, 0, false
	}
	if strings.ContainsAny(h[:55], "ABCDEF") {
		return TraceID{}, SpanID{}, 0, false
	}
	ver, err := hex.DecodeString(h[0:2])
	if err != nil || ver[0] == 0xff {
		return TraceID{}, SpanID{}, 0, false
	}
	if ver[0] == 0 && len(h) != 55 {
		return TraceID{}, SpanID{}, 0, false
	}
	if len(h) > 55 && h[55] != '-' {
		return TraceID{}, SpanID{}, 0, false
	}
	tid, ok = ParseTraceID(h[3:35])
	if !ok {
		return TraceID{}, SpanID{}, 0, false
	}
	parent, ok = ParseSpanID(h[36:52])
	if !ok {
		return TraceID{}, SpanID{}, 0, false
	}
	fl, err := hex.DecodeString(h[53:55])
	if err != nil {
		return TraceID{}, SpanID{}, 0, false
	}
	return tid, parent, fl[0], true
}

// FormatTraceparent renders a version-00 W3C `traceparent` header value.
func FormatTraceparent(tid TraceID, span SpanID, flags byte) string {
	return fmt.Sprintf("00-%s-%s-%02x", tid, span, flags)
}

// Attr is one span attribute. Values are strings — the tracer is a
// diagnostic surface, not a metrics pipeline, and strings keep the ring
// and its JSON rendering trivial.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Duration builds a duration attribute (Go duration syntax).
func Duration(k string, v time.Duration) Attr { return Attr{Key: k, Value: v.String()} }

// Span is one live span: a named window of host time inside a trace.
// SetAttr/SetError/End are nil-safe no-ops, so call sites never branch on
// whether the request is traced or sampled.
type Span struct {
	tr       *Trace
	id       SpanID
	parent   SpanID
	name     string
	start    time.Time
	duration time.Duration // set by End
	attrs    []Attr
	errMsg   string
	ended    bool
}

// ID returns the span's ID (zero for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tr.mu.Unlock()
}

// SetError records err on the span; a span with an error renders with
// OTLP status ERROR and forces tail capture of its trace when the
// serving layer finishes it.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.tr.mu.Lock()
	s.errMsg = err.Error()
	s.tr.mu.Unlock()
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.duration = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// Trace is one request's span collection. It is safe for concurrent use:
// the execution fan-out may end spans on worker goroutines while the
// request goroutine opens new ones.
type Trace struct {
	id      TraceID
	root    SpanID
	sampled bool
	remote  SpanID // parent span from an incoming traceparent, if any

	mu    sync.Mutex
	spans []*Span
	next  func() SpanID // span-ID mint, shared with the owning Tracer
}

// ID returns the trace ID (zero for a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Sampled reports the head sampling decision (propagated from the
// incoming traceparent, or taken from the trace ID when minted here).
func (t *Trace) Sampled() bool { return t != nil && t.sampled }

// Root returns the root span's ID.
func (t *Trace) Root() SpanID {
	if t == nil {
		return SpanID{}
	}
	return t.root
}

// Traceparent renders the outgoing W3C traceparent value for this trace:
// the root span as parent, the sampling decision in the flags.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	var flags byte
	if t.sampled {
		flags |= FlagSampled
	}
	return FormatTraceparent(t.id, t.root, flags)
}

// StartSpan opens a child span under parent (the root span when parent is
// zero). Nil-safe: a nil trace returns a nil span.
func (t *Trace) StartSpan(name string, parent SpanID) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tr: t, name: name, parent: parent, start: time.Now()}
	t.mu.Lock()
	sp.id = t.next()
	if sp.parent.IsZero() {
		sp.parent = t.root
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Add records an already-measured span with explicit timing — the bridge
// the per-operator profile uses to graft the executor's measured tree
// into the trace without re-timing anything. Returns the new span's ID
// so callers can parent children under it.
func (t *Trace) Add(name string, parent SpanID, start time.Time, d time.Duration, attrs ...Attr) SpanID {
	if t == nil {
		return SpanID{}
	}
	sp := &Span{tr: t, name: name, parent: parent, start: start, duration: d, ended: true, attrs: attrs}
	t.mu.Lock()
	sp.id = t.next()
	if sp.parent.IsZero() {
		sp.parent = t.root
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp.id
}

// SpanData is one finished span, as recorded in the ring and rendered to
// JSON. Parent is empty on the request's root span unless the request
// arrived with a traceparent (then it names the remote caller's span).
type SpanData struct {
	SpanID   string        `json:"spanId"`
	Parent   string        `json:"parentSpanId,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// snapshot copies the trace's spans into their recorded form; unended
// spans (a bug in the caller, or a bridge span added with zero duration)
// are closed at the snapshot instant.
func (t *Trace) snapshot() []SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	for i, sp := range t.spans {
		d := sp.duration
		if !sp.ended {
			d = time.Since(sp.start)
		}
		var parent string
		if !sp.parent.IsZero() {
			parent = sp.parent.String()
		}
		out[i] = SpanData{
			SpanID:   sp.id.String(),
			Parent:   parent,
			Name:     sp.name,
			Start:    sp.start,
			Duration: d,
			Attrs:    append([]Attr(nil), sp.attrs...),
			Error:    sp.errMsg,
		}
	}
	return out
}

// Config tunes a Tracer. The zero value samples nothing but still mints
// IDs and tail-captures forced traces.
type Config struct {
	// SampleRate is the head sampling probability in [0, 1]: the fraction
	// of minted trace IDs whose traces are kept. The decision is a pure
	// function of the trace ID (its first 8 bytes as a fraction of 2^64),
	// so it is deterministic per ID. Incoming traceparent headers carry
	// their caller's decision instead.
	SampleRate float64
	// RingSize bounds the finished-trace ring in entries; 0 defaults to
	// DefaultRingSize.
	RingSize int
	// Seed, when non-zero, makes ID minting deterministic — and with it
	// the head sampling sequence. 0 seeds from crypto/rand (production).
	Seed int64
	// Service names the emitting service in OTLP exports; "" defaults to
	// "blackswan".
	Service string
}

// DefaultRingSize is the finished-trace ring capacity when
// Config.RingSize is 0.
const DefaultRingSize = 256

// Tracer mints request traces, applies the sampling policy and keeps the
// finished-trace ring. Safe for concurrent use.
type Tracer struct {
	cfg  Config
	ring *Ring[Recorded]

	mu  sync.Mutex
	rnd *mrand.Rand

	started atomic.Int64 // requests that began a trace
	kept    atomic.Int64 // traces committed to the ring (sampled or forced)
	forced  atomic.Int64 // of which only because Finish forced them
	dropped atomic.Int64 // finished traces not recorded
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.Service == "" {
		cfg.Service = "blackswan"
	}
	seed := cfg.Seed
	if seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			seed = int64(binary.LittleEndian.Uint64(b[:]))
		} else {
			seed = time.Now().UnixNano()
		}
	}
	return &Tracer{
		cfg:  cfg,
		ring: NewRing[Recorded](cfg.RingSize),
		rnd:  mrand.New(mrand.NewSource(seed)),
	}
}

// Service returns the OTLP resource service name.
func (t *Tracer) Service() string { return t.cfg.Service }

// rand64 draws one 64-bit value under the tracer's lock.
func (t *Tracer) rand64() uint64 {
	t.mu.Lock()
	v := t.rnd.Uint64()
	t.mu.Unlock()
	return v
}

// mintSpanID returns a fresh non-zero span ID.
func (t *Tracer) mintSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], t.rand64())
	}
	return id
}

// sampleDecision is the head sampling policy: a pure function of the
// trace ID, so one ID always decides the same way everywhere.
func (t *Tracer) sampleDecision(id TraceID) bool {
	if t.cfg.SampleRate >= 1 {
		return true
	}
	if t.cfg.SampleRate <= 0 {
		return false
	}
	v := binary.BigEndian.Uint64(id[0:8])
	bound := uint64(t.cfg.SampleRate * math.MaxUint64)
	return v < bound
}

// StartRequest begins a request trace: traceparent is the incoming W3C
// header value — honoured when valid (trace ID and sampling flag carry
// over, the caller's span becomes the root's parent), fresh IDs minted
// otherwise. The returned root span is already started; the caller ends
// it and passes the trace to Finish.
func (t *Tracer) StartRequest(name, traceparent string) (*Trace, *Span) {
	if t == nil {
		return nil, nil
	}
	tr := &Trace{next: t.mintSpanID}
	if tid, parent, flags, ok := ParseTraceparent(traceparent); ok {
		tr.id = tid
		tr.remote = parent
		tr.sampled = flags&FlagSampled != 0
	} else {
		for tr.id.IsZero() {
			binary.BigEndian.PutUint64(tr.id[0:8], t.rand64())
			binary.BigEndian.PutUint64(tr.id[8:16], t.rand64())
		}
		tr.sampled = t.sampleDecision(tr.id)
	}
	t.started.Add(1)
	root := tr.StartSpan(name, tr.remote)
	tr.root = root.id
	return tr, root
}

// Recorded is one finished trace as kept in the ring.
type Recorded struct {
	TraceID string `json:"traceId"`
	// Root names the root span (RootSpan its hex ID); Start and Duration
	// are its window.
	Root     string        `json:"root"`
	RootSpan string        `json:"rootSpanId"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	// Sampled is the head decision; Forced marks a tail capture (slow or
	// errored request kept despite an unsampled head decision).
	Sampled bool `json:"sampled"`
	Forced  bool `json:"forced,omitempty"`
	// Error is the root span's error, when it failed.
	Error string     `json:"error,omitempty"`
	Spans []SpanData `json:"spans"`
}

// Finish commits a finished request trace: recorded into the ring when
// the head decision sampled it or force is set (the tail-capture path for
// slow and errored requests), counted and dropped otherwise. The root
// span is closed here if the caller has not already ended it.
func (t *Tracer) Finish(tr *Trace, force bool) {
	if t == nil || tr == nil {
		return
	}
	if !tr.sampled && !force {
		t.dropped.Add(1)
		return
	}
	spans := tr.snapshot()
	rec := Recorded{
		TraceID: tr.id.String(),
		Sampled: tr.sampled,
		Forced:  !tr.sampled && force,
		Spans:   spans,
	}
	rootHex := tr.root.String()
	rec.RootSpan = rootHex
	for _, sp := range spans {
		if sp.SpanID == rootHex {
			rec.Root = sp.Name
			rec.Start = sp.Start
			rec.Duration = sp.Duration
			rec.Error = sp.Error
			break
		}
	}
	t.kept.Add(1)
	if rec.Forced {
		t.forced.Add(1)
	}
	t.ring.Add(rec)
}

// Stats is the tracer's counter snapshot.
type Stats struct {
	Started int64 `json:"started"`
	Kept    int64 `json:"kept"`
	Forced  int64 `json:"forced"`
	Dropped int64 `json:"dropped"`
	// Ring is the number of traces currently held.
	Ring int `json:"ring"`
}

// Stats returns the tracer's counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started: t.started.Load(),
		Kept:    t.kept.Load(),
		Forced:  t.forced.Load(),
		Dropped: t.dropped.Load(),
		Ring:    t.ring.Len(),
	}
}

// Traces returns the recorded traces, newest first.
func (t *Tracer) Traces() []Recorded {
	if t == nil {
		return nil
	}
	return t.ring.Entries()
}

// Get returns the recorded trace with the given hex ID — the newest, on
// the (pathological) reuse of an incoming trace ID.
func (t *Tracer) Get(id string) (Recorded, bool) {
	for _, rec := range t.Traces() {
		if rec.TraceID == id {
			return rec, true
		}
	}
	return Recorded{}, false
}

// ctxKey carries the trace and the current span through a context.
type ctxKey struct{}

type ctxVal struct {
	tr   *Trace
	span SpanID
}

// NewContext returns ctx carrying tr with span as the current parent for
// StartSpan. A nil trace returns ctx unchanged.
func NewContext(ctx context.Context, tr *Trace, span SpanID) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{tr: tr, span: span})
}

// FromContext returns the trace and current span carried by ctx, or
// (nil, zero) when the request is untraced.
func FromContext(ctx context.Context) (*Trace, SpanID) {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok {
		return nil, SpanID{}
	}
	return v.tr, v.span
}

// StartSpan opens a child span under the context's current span and
// returns a context in which the new span is current. Untraced contexts
// pass through: the returned span is nil and all its methods no-op, so
// instrumented code never branches.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tr, cur := FromContext(ctx)
	if tr == nil {
		return ctx, nil
	}
	sp := tr.StartSpan(name, cur)
	return NewContext(ctx, tr, sp.id), sp
}
