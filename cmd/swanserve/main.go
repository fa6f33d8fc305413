// Command swanserve is the HTTP front-end of the query-serving subsystem:
// it generates a Barton-shaped data set, loads it into all four storage
// schemes, and serves BGP queries over JSON with a shared plan cache and
// bounded admission.
//
// Usage:
//
//	swanserve [-addr :8080] [-triples 100000] [-props 60] [...]
//
// With -ingest file.nt the dataset comes from the file instead, loaded
// through the parallel ingest pipeline; the load's throughput and
// simulated pipeline-overlap figures then appear at /metrics and /stats.
// -slow-threshold enables the slow-query log (readable at /debug/slow),
// -slow-log bounds its ring.
//
// Every request is traced: -trace-sample sets the head sampling rate
// (default 1.0 — keep everything; slow and errored requests are kept
// regardless), -trace-ring bounds the finished-trace ring served at
// /debug/traces. Responses carry the trace ID (traceId field and
// traceparent header) and every structured log line (slog, stderr)
// carries it too, so one ID joins response, trace, slow-log entry and
// log line. -log-level tunes verbosity (debug logs every served query).
// -pprof mounts Go's net/http/pprof handlers under /debug/pprof/.
//
// Every served query is also folded into the workload registry under its
// fingerprint — the hash of the canonical query text, returned in each
// response — which aggregates counts, rows, latency/queue-wait quantile
// sketches, per-system splits and (for profiled runs) per-operator
// est-vs-actual q-errors. Read it at /debug/workload; its totals and top
// shapes also appear on /metrics as blackswan_workload_* series.
// -version prints the build identity (also the blackswan_build_info
// series) and exits.
//
// The write path is on by default (-writes=false disables it): POST
// /update applies one INSERT DATA / DELETE DATA request transactionally
// and installs a new immutable dataset version — readers keep their
// snapshot, responses carry the version, and /metrics exports it as
// blackswan_dataset_version. Once the delta reaches -compact-every
// entries the commit instead folds base and delta into a full rebuild of
// all four schemes (recomputing statistics and the cardinality
// estimator). /debug/versions lists the version history, newest first.
//
// Endpoints (see internal/serve):
//
//	GET  /query?q=<bgp text>&system=<name>[&limit=n][&timeout=d][&profile=1]
//	GET  /systems
//	GET  /stats
//	GET  /metrics       Prometheus text exposition
//	GET  /debug/workload[?by=time|count|qerror][&system=<name>][&limit=n]
//	GET  /debug/slow[?system=<name>][&limit=n]    slow-query log, newest first
//	GET  /debug/traces[?system=<name>][&limit=n]  retained traces, newest first
//	GET  /debug/traces/<id>[?format=otlp]
//	GET  /debug/pprof/  Go runtime profiles (with -pprof)
//	GET  /debug/versions[?limit=n]                dataset version history
//	POST /update        u=<INSERT DATA { ... } | DELETE DATA { ... }>
//	POST /reload[?seed=N][&triples=N][&props=N]
//
// /reload regenerates the dataset with the given parameters (defaulting
// to the process flags), loads it into all four schemes, and atomically
// swaps it in under live traffic: in-flight queries finish on the old
// snapshot, new requests see the new data, and the plan cache restarts
// empty. Reloads serialize; queries never block on one. With writes
// enabled the reload rebases the mutator, so it also bumps the dataset
// version.
//
// Example:
//
//	swanserve &
//	curl 'localhost:8080/query?q=SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D&limit=3'
//	curl -X POST 'localhost:8080/reload?seed=7'
//
// Malformed queries return HTTP 400 with the parse position (line, column,
// byte offset); unknown systems 404; expired request timeouts 504.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"blackswan/internal/bench"
	"blackswan/internal/buildinfo"
	"blackswan/internal/datagen"
	"blackswan/internal/ingest"
	"blackswan/internal/serve"
	"blackswan/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		triples     = flag.Int("triples", 100_000, "number of triples to generate")
		props       = flag.Int("props", 60, "number of distinct properties")
		interesting = flag.Int("interesting", 28, "size of the interesting-property selection")
		seed        = flag.Int64("seed", 42, "generator seed")
		cacheSize   = flag.Int("cache", serve.DefaultCacheSize, "plan-cache capacity in entries (negative disables)")
		maxConc     = flag.Int("max-concurrent", runtime.GOMAXPROCS(0), "admission bound: concurrently executing queries")
		ingestFile  = flag.String("ingest", "", "serve this N-Triples file (loaded through the parallel ingest pipeline) instead of generated data")
		ingestWk    = flag.Int("ingest-workers", 0, "ingest pipeline workers (0 means one per CPU)")
		slowThresh  = flag.Duration("slow-threshold", 0, "record served queries at or above this latency in the slow-query log (0 disables)")
		slowSize    = flag.Int("slow-log", serve.DefaultSlowLogSize, "slow-query log capacity in entries")
		traceRate   = flag.Float64("trace-sample", 1.0, "head sampling rate for request traces in [0,1]; slow and errored requests are kept regardless")
		traceRing   = flag.Int("trace-ring", trace.DefaultRingSize, "finished-trace ring capacity (0 disables tracing)")
		logLevel    = flag.String("log-level", "info", "structured-log level: debug, info, warn, error")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		writes      = flag.Bool("writes", true, "enable the write path (POST /update with INSERT DATA / DELETE DATA)")
		compactEvry = flag.Int("compact-every", 50, "delta entries that trigger a compacting rebuild of all four schemes (-1 never compacts)")
		version     = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("swanserve", buildinfo.Get())
		return
	}

	log := newLogger(*logLevel)
	var tracer *trace.Tracer
	if *traceRing > 0 {
		tracer = trace.New(trace.Config{SampleRate: *traceRate, RingSize: *traceRing, Service: "swanserve"})
	}

	var w *bench.Workload
	var ingestSnap *serve.IngestSnapshot
	if *ingestFile != "" {
		log.Info("ingesting through the parallel pipeline", "file", *ingestFile)
		var err error
		w, ingestSnap, err = ingestWorkload(log, *ingestFile, *ingestWk)
		fail(err)
	} else {
		log.Info("generating dataset", "triples", *triples, "props", *props, "seed", *seed)
		var err error
		w, err = bench.NewWorkload(datagen.Config{
			Triples: *triples, Properties: *props, Interesting: *interesting, Seed: *seed,
		})
		fail(err)
	}
	log.Info("loading the four storage schemes")
	systems, err := bench.BGPSystems(w)
	fail(err)
	svc, err := bench.NewService(w, systems, serve.Config{
		MaxConcurrent: *maxConc, CacheSize: *cacheSize,
		SlowQueryThreshold: *slowThresh, SlowLogSize: *slowSize,
		Tracer: tracer, Logger: log,
	})
	fail(err)
	if ingestSnap != nil {
		svc.RecordIngest(*ingestSnap)
	}
	var mut *serve.Mutator
	if *writes {
		mut, err = bench.NewMutator(svc, w, systems, *compactEvry)
		fail(err)
	}

	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandler(svc))
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	var reloadMu sync.Mutex // one dataset build at a time; queries keep flowing
	mux.HandleFunc("/reload", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, `{"error":"use POST"}`, http.StatusMethodNotAllowed)
			return
		}
		cfg := datagen.Config{
			Triples: intParam(r, "triples", *triples), Properties: intParam(r, "props", *props),
			Interesting: *interesting, Seed: int64(intParam(r, "seed", int(*seed))),
		}
		reloadMu.Lock()
		defer reloadMu.Unlock()
		start := time.Now()
		// Bad generation parameters are the client's mistake (400); a
		// failure while building or swapping the dataset is ours (500).
		status := http.StatusBadRequest
		nw, err := bench.NewWorkload(cfg)
		if err == nil {
			status = http.StatusInternalServerError
			var nsys []*bench.System
			if nsys, err = bench.BGPSystems(nw); err == nil {
				var targets []serve.Target
				if targets, err = bench.ServeTargets(nsys); err == nil {
					// With the write path on, the reload goes through the
					// mutator so its delta state rebases onto the new
					// dataset; both paths install one new version.
					if mut != nil {
						err = mut.Rebase(nw.DS.Graph, nw.Cat, nw.Estimator(), targets)
					} else {
						err = svc.Swap(nw.DS.Graph.Dict, nw.Estimator(), targets...)
					}
				}
			}
		}
		if err != nil {
			log.Warn("reload failed", "error", err.Error(), "seed", cfg.Seed)
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(status)
			_ = json.NewEncoder(rw).Encode(map[string]string{"error": err.Error()})
			return
		}
		log.Info("reloaded dataset",
			"triples", nw.DS.Graph.Len(), "seed", cfg.Seed,
			"loadSecs", time.Since(start).Seconds())
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(map[string]any{
			"triples": nw.DS.Graph.Len(), "seed": cfg.Seed,
			"loadSecs": time.Since(start).Seconds(), "systems": svc.Systems(),
		})
	})

	log.Info("serving",
		"systems", fmt.Sprint(svc.Systems()), "addr", *addr,
		"cache", *cacheSize, "admission", *maxConc,
		"traceSample", *traceRate, "pprof", *pprofOn,
		"writes", *writes, "compactEvery", *compactEvry)
	fail(http.ListenAndServe(*addr, mux))
}

// newLogger builds the process's structured logger: slog text lines on
// stderr at the requested level.
func newLogger(level string) *slog.Logger {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		lv = slog.LevelInfo
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
}

// ingestWorkload loads an N-Triples file through the parallel ingest
// pipeline and derives the serving workload from the loaded graph, keeping
// the load's stage breakdown for RecordIngest.
func ingestWorkload(log *slog.Logger, path string, workers int) (*bench.Workload, *serve.IngestSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	g, st, err := ingest.Load(f, ingest.Options{Workers: workers, Logger: log})
	if err != nil {
		return nil, nil, err
	}
	w, err := bench.WorkloadFromGraph(g)
	if err != nil {
		return nil, nil, err
	}
	return w, &serve.IngestSnapshot{
		Statements: st.Statements,
		Bytes:      st.Bytes,
		Wall:       st.Wall,
		StageBusy: map[string]time.Duration{
			"scan":     st.ScanBusy,
			"parse":    st.ParseBusy,
			"assemble": st.AssembleBusy,
		},
		SimCPU:        st.SimCPU,
		SimIO:         st.SimIO,
		SimSync:       st.SimSync,
		SimOverlapped: st.SimOverlapped,
	}, nil
}

// intParam reads an integer query parameter, falling back to def.
func intParam(r *http.Request, name string, def int) int {
	v := r.FormValue(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "swanserve:", err)
		os.Exit(1)
	}
}
