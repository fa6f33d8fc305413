// Package core implements the study itself: the two RDF storage schemes
// (triple-store with a chosen clustering, and the vertically-partitioned
// scheme) instantiated over both the row-store and the column-store engine,
// the twelve benchmark queries (q1–q8 plus the full-scale * variants of
// q2/q3/q4/q6), the RDF query-space model of Section 2.2 (triple patterns
// p1–p8 and join patterns A/B/C, with the Table 2 coverage analysis), and
// the SQL text generator that plays the role of the authors' Perl script.
//
// Queries execute through the declarative plan layer: PlanFor declares each
// query once as a logical operator DAG, NewPlan analyses a DAG once into a
// Plan, and the one executor (Plan.Execute, stream.go) lowers it onto any
// scheme from its physical properties (PhysicalSource):
// pull-based iterators exchanging row batches, with no barriers except hash
// builds, grouping, sorts and shared subexpressions. It runs in two
// configurations of one value, the batch size:
//
//   - drained (the zero ExecOptions): the batch is unbounded, so every
//     operator, scans included, finishes before its consumer starts — the
//     schedule of the systems the paper measures, and what Database.Run,
//     the paper grid and the ledger's reference rows use;
//   - pipelined (ExecOptions{Streaming: true}): fixed-size batches. LIMIT
//     and the bounded-heap TopN (n·⌈log₂ k⌉
//     comparisons) propagate early termination into the physical scans, so
//     bounded queries stop paying simulated I/O and hold only a few batches
//     of intermediate state (Trace.PeakBytes). The serving layer's default.
//
// Results are byte-identical — including row order — in both, on every
// scheme, and simulated CPU depends on the work charged, not on the batch
// size. Execute checks cancellation at batch boundaries.
package core
