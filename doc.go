// Package blackswan is a self-contained Go reproduction of "Column-Store
// Support for RDF Data Management: not all swans are white" (Sidirourgos,
// Goncalves, Kersten, Nes, Manegold — VLDB 2008), the independent
// re-evaluation of Abadi et al.'s vertically-partitioned RDF storage.
//
// The library lives under internal/: the RDF data model (internal/rdf), the
// Barton-shaped data generator (internal/datagen), the simulated storage
// environment (internal/simio), the two engines (internal/rowstore with
// internal/btree, and internal/colstore), the storage schemes, the
// declarative query-plan layer and its shared executor (internal/core),
// the BGP query compiler (internal/bgp), the query-serving subsystem
// (internal/serve), the parallel bulk-ingest pipeline (internal/ingest),
// and the experiment harness (internal/bench).
//
// Every benchmark query is declared once as a logical plan
// (core.PlanFor) and lowered onto all four storage schemes by one
// executor through a small per-scheme physical-access interface
// (core.PhysicalSource) — per-property scans, ordering hints that select
// merge vs. hash joins, and partitioned-union fan-out — either drained
// operator by operator, as the systems the paper measures run, or pipelined
// in batches (core.ExecOptions). Beyond the fixed twelve queries,
// internal/bgp compiles arbitrary basic-graph-pattern queries — stated in
// a small text syntax that has grown toward SPARQL: OPTIONAL (left outer
// join with NULL-bearing results), numeric range filters over typed
// literals, and ORDER BY/LIMIT with a deterministic total value order —
// into the same plan vocabulary (core.LeftJoin, core.FilterRange,
// core.TopN), choosing join orders from data-set statistics (outer joins
// never reorder across their boundary), and generates seeded random
// workloads (swanbench's -bgp flag and workloads experiment). The whole
// language is validated against bgp.EvalBGP, an independent naive
// reference evaluator, by per-construct property-test corpora across all
// four schemes, golden plan trees, and native fuzz targets for the query
// and update parsers. On top of both,
// internal/serve is the concurrent serving layer: an LRU plan cache over
// canonicalized query text (hits skip parsing and join ordering), bounded
// admission, request-context cancellation through core.ExecutePlanCtx,
// a delta-overlay write path checked against snapshot isolation
// (internal/verify), and a JSON-over-HTTP front-end (cmd/swanserve). Every
// execution becomes one event feeding every observation sink — counters,
// the per-fingerprint workload registry (internal/sketch), the slow/error
// ring, request traces (internal/trace) and log/slog — and the swanbench
// observe experiment is the one gate that the sinks only observe:
// byte-identical rows, identical simulated charges, bounded host overhead.
// Its throughput, tail latency and cache amortization are measured by the
// performance ledger under benchmark/ (BENCHMARK.json), the repository's
// one measuring stick. Feeding all of it, internal/ingest bulk-loads N-Triples
// through one pipelined parallel loader over the sharded rdf.Dictionary
// (the one dictionary type, behind the rdf.Dict interface), with a
// deterministic mode byte-identical to the sequential reader, concurrent
// four-scheme builds over one shared partition, and a live dataset swap
// in the serving layer (serve.Service.Swap, swanserve's POST /reload);
// the swanbench load experiment measures ingest throughput per stage.
// DESIGN.md documents the architecture, the system inventory and the
// substitutions for non-redistributable resources.
//
// The root package holds the benchmark suite: one testing.B benchmark per
// table and figure of the paper (bench_test.go) plus ablation benchmarks for
// the load-bearing design choices (ablation_bench_test.go). Run
//
//	go test -bench=. -benchmem
//
// to regenerate every experiment, or use cmd/swanbench for formatted,
// full-scale output.
package blackswan
