package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/trace"
)

// The HTTP front-end: a minimal JSON API over a Service.
//
//	GET|POST /query?q=<text>&system=<name>[&limit=n][&timeout=d][&profile=1]
//	POST     /update?u=<text>
//	GET      /systems
//	GET      /stats
//	GET      /metrics
//	GET      /debug/slow[?system=<name>][&limit=n]
//	GET      /debug/workload[?by=time|count|qerror][&system=<name>][&limit=n]
//	GET      /debug/traces[?system=<name>][&limit=n]
//	GET      /debug/traces/<traceId>[?format=otlp]
//	GET      /debug/versions
//
// /query executes q on the named system (default: the service's first
// target) and returns the decoded rows. POST also accepts a JSON body
// ({"q": ..., "system": ..., "limit": ..., "timeout": ..., "profile": ...})
// when sent with Content-Type application/json. limit caps the rows decoded
// into the response (default 100, limit=-1 for all; rowCount always reports
// the full result size). timeout is a Go duration (e.g. 250ms) bounding the
// request, demonstrating cancellation through the executor. profile turns
// on per-operator EXPLAIN ANALYZE collection; the response then carries the
// profile tree (measured rows, simulated CPU/IO, host time, peak memory,
// cardinality estimates per operator) next to the unchanged rows.
// Malformed queries come back as 400 with the parse position (line, column,
// offset), unknown systems as 404, cancelled or expired requests as 504;
// every error response names its class ("parse", "unknown_system",
// "canceled", "exec") matching the blackswan_errors_total metric labels.
//
// /update is the write path: u is an INSERT DATA / DELETE DATA request
// (';'-separated blocks, applied as one transaction — see bgp.ParseUpdate
// and the Mutator). The response reports the installed dataset version and
// the version the commit was applied against, the snapshot-isolation
// observables the verify package checks. 501 when the service is read-only
// (no Mutator installed), 400 with the parse position for bad update text.
// /debug/versions lists recent dataset versions, newest first, with the
// live one marked; every /query response carries the version its rows came
// from.
//
// /metrics is the Prometheus text-exposition endpoint (see prom.go) and
// /debug/slow returns the slow-query log, newest first (see slowlog.go);
// ?system= keeps only entries for one target and ?limit= caps the count.
// /debug/workload serves the workload registry (see workload.go): the
// top fingerprints ordered by summed latency (?by=count and ?by=qerror
// reorder), each with its canonical text, plan, ε-approximate latency and
// queue-wait quantiles, per-system splits and — for profiled shapes —
// per-operator estimate-vs-actual q-error aggregates. /debug/traces
// accepts the same ?system=/?limit= filters, matching traces whose
// execute span named the target.
//
// When the service has a tracer (Config.Tracer), every /query request is
// traced: an incoming W3C `traceparent` header is honoured (so blackswan
// joins its caller's distributed trace), a fresh trace is minted
// otherwise, and the response — success or error — carries the trace ID
// in the `traceId` field and a `traceparent` response header. Retained
// traces (head-sampled, or tail-captured because the request was slow or
// errored) are listed at /debug/traces and fetched by ID at
// /debug/traces/<id>, natively or OTLP-shaped with ?format=otlp.

// QueryRequest is the JSON body POST /query accepts as an alternative to
// form parameters. Zero values fall back to the form-parameter defaults.
type QueryRequest struct {
	Q       string `json:"q"`
	System  string `json:"system,omitempty"`
	Limit   *int   `json:"limit,omitempty"`
	Timeout string `json:"timeout,omitempty"`
	Profile bool   `json:"profile,omitempty"`
}

// QueryResponse is the /query success payload. A null row cell is an
// unbound variable — the OPTIONAL construct's NULL — distinct from every
// decoded term (even the empty literal, which decodes to "\"\"").
type QueryResponse struct {
	System string `json:"system"`
	// Version is the dataset version the rows came from — the read half of
	// the snapshot-isolation contract (see /update and /debug/versions).
	Version   uint64       `json:"version"`
	Columns   []string     `json:"columns"`
	Rows      [][]*string  `json:"rows"`
	RowCount  int          `json:"rowCount"`
	Truncated bool         `json:"truncated,omitempty"`
	Cached    bool         `json:"cached"`
	LatencyMs float64      `json:"latencyMs"`
	QueuedMs  float64      `json:"queuedMs"`
	Profile   *ProfileNode `json:"profile,omitempty"`
	// TraceID is the request's trace ID (hex), present when the service
	// traces requests — the key to /debug/traces/<id>, the slow log and
	// the structured log.
	TraceID string `json:"traceId,omitempty"`
}

// ErrorResponse is the JSON error payload; Class matches the error-class
// metric labels. Line/Col/Offset are present for parse errors (Line and
// Col are 1-based, so zero means absent; Offset is a pointer because byte
// offset 0 is a valid position).
type ErrorResponse struct {
	Error  string `json:"error"`
	Class  string `json:"errorClass,omitempty"`
	Line   int    `json:"line,omitempty"`
	Col    int    `json:"col,omitempty"`
	Offset *int   `json:"offset,omitempty"`
	// TraceID joins a failed request with its retained trace (errored
	// requests are always tail-captured).
	TraceID string `json:"traceId,omitempty"`
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	Snapshot
	Systems []string        `json:"systems"`
	Ingest  *IngestSnapshot `json:"ingest,omitempty"`
}

// NewHandler returns the HTTP front-end of s.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use GET or POST"})
			return
		}
		req, errResp := parseQueryRequest(r)
		if errResp != nil {
			writeError(w, http.StatusBadRequest, *errResp)
			return
		}
		if req.Q == "" {
			writeError(w, http.StatusBadRequest, ErrorResponse{Error: "missing q parameter", Class: ErrClassParse})
			return
		}
		system := req.System
		if system == "" {
			system = s.DefaultSystem()
		}
		limit := 100
		if req.Limit != nil {
			limit = *req.Limit
		}
		ctx := r.Context()
		if req.Timeout != "" {
			d, err := time.ParseDuration(req.Timeout)
			if err != nil {
				writeError(w, http.StatusBadRequest, ErrorResponse{Error: "bad timeout: " + err.Error(), Class: ErrClassParse})
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		ctx, tr, finishTrace := s.TraceStart(ctx, "query", r.Header.Get("traceparent"))
		traceID := ""
		if tr != nil {
			traceID = tr.ID().String()
			w.Header().Set("traceparent", tr.Traceparent())
		}
		res, err := s.ExecTextOpts(ctx, req.Q, system, ExecOpts{Profile: req.Profile})
		finishTrace(err)
		if err != nil {
			resp := errorResponseOf(err)
			resp.TraceID = traceID
			writeError(w, statusOf(err), resp)
			return
		}
		rows := s.DecodeRowsNull(res, limit)
		writeJSON(w, http.StatusOK, QueryResponse{
			System:    res.System,
			Version:   res.Version,
			Columns:   res.Cols,
			Rows:      rows,
			RowCount:  res.Rows.Len(),
			Truncated: len(rows) < res.Rows.Len(),
			Cached:    res.Cached,
			LatencyMs: float64(res.Latency.Microseconds()) / 1e3,
			QueuedMs:  float64(res.Queued.Microseconds()) / 1e3,
			Profile:   profileJSON(res.Profile, res.plan),
			TraceID:   traceID,
		})
	})
	mux.HandleFunc("/update", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use POST"})
			return
		}
		m := s.Mutator()
		if m == nil {
			writeError(w, http.StatusNotImplemented, ErrorResponse{Error: "mutation disabled: service is read-only"})
			return
		}
		text, errResp := parseUpdateRequest(r)
		if errResp != nil {
			writeError(w, http.StatusBadRequest, *errResp)
			return
		}
		if text == "" {
			writeError(w, http.StatusBadRequest, ErrorResponse{Error: "missing u parameter", Class: ErrClassParse})
			return
		}
		res, err := m.ApplyUpdate(r.Context(), text)
		if err != nil {
			writeError(w, statusOf(err), errorResponseOf(err))
			return
		}
		writeJSON(w, http.StatusOK, UpdateResponse{
			UpdateResult: *res,
			LatencyMs:    float64(res.Latency.Microseconds()) / 1e3,
		})
	})
	mux.HandleFunc("/debug/versions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Versions())
	})
	mux.HandleFunc("/systems", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Systems())
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, StatsResponse{Snapshot: s.Stats(), Systems: s.Systems(), Ingest: s.Ingest()})
	})
	mux.Handle("/metrics", MetricsHandler(s))
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, r *http.Request) {
		limit, errResp := limitParam(r)
		if errResp != nil {
			writeError(w, http.StatusBadRequest, *errResp)
			return
		}
		entries := s.SlowQueries()
		if system := r.FormValue("system"); system != "" {
			kept := entries[:0]
			for _, e := range entries {
				if e.System == system {
					kept = append(kept, e)
				}
			}
			entries = kept
		}
		if limit >= 0 && len(entries) > limit {
			entries = entries[:limit]
		}
		if entries == nil {
			entries = []SlowEntry{}
		}
		writeJSON(w, http.StatusOK, entries)
	})
	mux.HandleFunc("/debug/workload", func(w http.ResponseWriter, r *http.Request) {
		// Unlike /debug/slow and /debug/traces (absent limit = everything),
		// an absent limit here means DefaultWorkloadLimit: the endpoint is a
		// top-K view first.
		limit := 0
		if v := r.FormValue("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, ErrorResponse{Error: "bad limit: " + err.Error(), Class: ErrClassParse})
				return
			}
			limit = n
		}
		by := r.FormValue("by")
		switch by {
		case "", "time", "count", "qerror":
		default:
			writeError(w, http.StatusBadRequest, ErrorResponse{Error: "bad by parameter (want time, count or qerror)", Class: ErrClassParse})
			return
		}
		ws := s.Workload(WorkloadQuery{Limit: limit, By: by, System: r.FormValue("system")})
		if ws == nil {
			writeError(w, http.StatusNotFound, ErrorResponse{Error: "workload registry disabled"})
			return
		}
		writeJSON(w, http.StatusOK, ws)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		t := s.Tracer()
		if t == nil {
			writeError(w, http.StatusNotFound, ErrorResponse{Error: "tracing disabled"})
			return
		}
		limit, errResp := limitParam(r)
		if errResp != nil {
			writeError(w, http.StatusBadRequest, *errResp)
			return
		}
		traces := t.Traces()
		if system := r.FormValue("system"); system != "" {
			kept := traces[:0]
			for _, rec := range traces {
				if traceRanOn(rec, system) {
					kept = append(kept, rec)
				}
			}
			traces = kept
		}
		if limit >= 0 && len(traces) > limit {
			traces = traces[:limit]
		}
		writeJSON(w, http.StatusOK, TracesResponse{Stats: t.Stats(), Traces: traces})
	})
	mux.HandleFunc("/debug/traces/", func(w http.ResponseWriter, r *http.Request) {
		t := s.Tracer()
		if t == nil {
			writeError(w, http.StatusNotFound, ErrorResponse{Error: "tracing disabled"})
			return
		}
		id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
		rec, ok := t.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, ErrorResponse{Error: "no such trace: " + id})
			return
		}
		if r.FormValue("format") == "otlp" {
			writeJSON(w, http.StatusOK, trace.OTLP(rec, t.Service()))
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})
	return mux
}

// TracesResponse is the /debug/traces list payload: the tracer's counters
// plus the retained traces, newest first.
type TracesResponse struct {
	Stats  trace.Stats      `json:"stats"`
	Traces []trace.Recorded `json:"traces"`
}

// UpdateRequest is the JSON body POST /update accepts as an alternative to
// the u form parameter.
type UpdateRequest struct {
	U string `json:"u"`
}

// UpdateResponse is the /update success payload: the committed result plus
// the latency in the same milliseconds convention /query uses.
type UpdateResponse struct {
	UpdateResult
	LatencyMs float64 `json:"latencyMs"`
}

// parseUpdateRequest extracts the update text from a JSON body (POST with
// Content-Type application/json) or the u form parameter.
func parseUpdateRequest(r *http.Request) (string, *ErrorResponse) {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
		if err != nil {
			return "", &ErrorResponse{Error: "reading body: " + err.Error(), Class: ErrClassParse}
		}
		var req UpdateRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return "", &ErrorResponse{Error: "bad JSON body: " + err.Error(), Class: ErrClassParse}
		}
		return req.U, nil
	}
	return r.FormValue("u"), nil
}

// parseQueryRequest extracts the query parameters from either a JSON body
// (POST with Content-Type application/json) or form/query parameters.
func parseQueryRequest(r *http.Request) (QueryRequest, *ErrorResponse) {
	var req QueryRequest
	ct := r.Header.Get("Content-Type")
	if r.Method == http.MethodPost && strings.HasPrefix(ct, "application/json") {
		body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
		if err != nil {
			return req, &ErrorResponse{Error: "reading body: " + err.Error(), Class: ErrClassParse}
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return req, &ErrorResponse{Error: "bad JSON body: " + err.Error(), Class: ErrClassParse}
		}
		return req, nil
	}
	req.Q = r.FormValue("q")
	req.System = r.FormValue("system")
	req.Timeout = r.FormValue("timeout")
	if v := r.FormValue("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return req, &ErrorResponse{Error: "bad limit: " + err.Error(), Class: ErrClassParse}
		}
		req.Limit = &n
	}
	if v := r.FormValue("profile"); v != "" && v != "0" && !strings.EqualFold(v, "false") {
		req.Profile = true
	}
	return req, nil
}

// limitParam reads the ?limit= query parameter shared by the debug
// endpoints: absent means unbounded (-1), and any parsed value is passed
// through (negative also meaning unbounded; /debug/workload substitutes
// its own default for 0).
func limitParam(r *http.Request) (int, *ErrorResponse) {
	v := r.FormValue("limit")
	if v == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, &ErrorResponse{Error: "bad limit: " + err.Error(), Class: ErrClassParse}
	}
	return n, nil
}

// traceRanOn reports whether any span of rec carries a system attribute
// naming the given target — the join between traces and the per-system
// serving surfaces.
func traceRanOn(rec trace.Recorded, system string) bool {
	for _, sp := range rec.Spans {
		for _, a := range sp.Attrs {
			if a.Key == "system" && a.Value == system {
				return true
			}
		}
	}
	return false
}

// statusOf maps service errors to HTTP statuses through their class: parse
// and compile problems are the client's (400), unknown systems are 404,
// context ends are 504, the rest is 500.
func statusOf(err error) int {
	switch ErrorClass(err) {
	case ErrClassParse:
		return http.StatusBadRequest
	case ErrClassUnknownSystem:
		return http.StatusNotFound
	case ErrClassCanceled:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// errorResponseOf renders err with its class, attaching the parse position
// when there is one — the client-facing diagnostic the positioned parser
// exists for.
func errorResponseOf(err error) ErrorResponse {
	resp := ErrorResponse{Error: err.Error(), Class: ErrorClass(err)}
	var pe *bgp.ParseError
	if errors.As(err, &pe) {
		off := pe.Offset
		resp.Line, resp.Col, resp.Offset = pe.Line, pe.Col, &off
	}
	return resp
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, resp ErrorResponse) {
	writeJSON(w, status, resp)
}
