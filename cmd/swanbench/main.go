// Command swanbench regenerates every table and figure of the paper's
// evaluation on a synthetic Barton-shaped workload.
//
// Usage:
//
//	swanbench [flags] <experiment>
//
// Experiments:
//
//	table1   data set details
//	fig1     cumulative frequency distributions
//	table2   query-space coverage
//	table4   C-Store repetition on machines A and B (cold/hot, real/user)
//	table5   data read from disk and rows returned per query
//	fig5     I/O read history for q3 and q5
//	table6   full grid, cold runs
//	table7   full grid, hot runs
//	fig6      execution time vs number of aggregated properties
//	fig7      scale-up experiment (property splitting, 222 → 1000)
//	workloads generated random-BGP workload through the query compiler
//	load      bulk-ingest benchmark: sequential loader vs the parallel
//	          pipeline (triples/sec, per-stage breakdown, deterministic
//	          byte-identity and cross-build query equivalence)
//	stream    pipelined vs drained executor configuration: paper queries plus a
//	          generated ORDER BY/LIMIT workload, reporting simulated time,
//	          host time, physical I/O and peak per-query memory; fails when
//	          the LIMIT workload's pipelined peak exceeds a quarter of the
//	          drained peak
//	observe   the observation-only gate: -bgp-count generated queries run
//	          hot through the serving layer on every scheme, once with
//	          every sink off and once per sink
//	          (per-operator profiling, tracing at 100% sampling, the
//	          workload registry, all three); fails unless every sink-on
//	          execution is byte-identical to the baseline with identical
//	          simulated charges, every sink shows proof of life (traces
//	          kept, registry quantiles within the sketch's ε rank bound,
//	          q-error aggregates folded) and each sink's host-time ratio
//	          stays within 1.10
//	mutate    live mutation: concurrent INSERT DATA / DELETE DATA writers
//	          and version-tagged readers through the HTTP front-end, the
//	          recorded history checked against snapshot isolation, the
//	          final state byte-compared with a from-scratch rebuild, and a
//	          fault-injection pass proving the checker catches stale
//	          snapshots
//	sql       generated SQL for both schemes, with union/join counts
//	gen       write the generated data set as N-Triples to stdout
//	all       every experiment in paper order
//
// load, stream, observe and mutate also write their result as JSON to the
// file named by -report (one experiment per invocation, so not with all).
// Serving throughput, tail latency and the plan cache are measured by the
// ledger under benchmark/, not here.
//
// Beyond the paper's fixed queries, -bgp '<query>' compiles and runs an
// arbitrary basic-graph-pattern query (see internal/bgp for the syntax) on
// all four storage schemes:
//
//	swanbench -bgp 'SELECT ?s ?t WHERE { ?s <barton/origin> <barton/info:marcorg/DLC> . ?s <barton/records> ?x . ?x <barton/type> ?t }'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"blackswan/internal/bench"
	"blackswan/internal/bgp"
	"blackswan/internal/buildinfo"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

func main() {
	var (
		triples     = flag.Int("triples", 1_000_000, "number of triples to generate (Barton is 50,255,599)")
		props       = flag.Int("props", 222, "number of distinct properties")
		interesting = flag.Int("interesting", 28, "size of the interesting-property selection")
		seed        = flag.Int64("seed", 42, "generator seed")
		fig7Max     = flag.Int("fig7-max", 1000, "maximum property count for fig7")
		fig7Steps   = flag.Int("fig7-steps", 9, "measurement points for fig7")
		fig6Steps   = flag.Int("fig6-steps", 8, "measurement points for fig6")
		bgpText     = flag.String("bgp", "", "compile and run this BGP query on all four schemes (see internal/bgp for the syntax), instead of an experiment")
		bgpCount    = flag.Int("bgp-count", 12, "number of generated queries for the workloads and observe experiments")
		bgpSeed     = flag.Int64("bgp-seed", 0, "workload-generator seed (defaults to -seed)")
		reportPath  = flag.String("report", "", "write the JSON report of the load, stream, observe or mutate experiment to this file")
		loadWorkers = flag.Int("load-workers", 0, "parallel worker count for the load experiment (defaults to NumCPU)")
		loadChunk   = flag.Int("load-chunk", 0, "scan-stage chunk bytes for the load experiment (defaults to 1MiB)")
		loadQuick   = flag.Bool("load-quick", false, "skip the load experiment's scheme-build/query-equivalence phase")
		strQueries  = flag.Int("stream-queries", 10, "generated ORDER BY/LIMIT queries for the stream experiment")
		strHot      = flag.Bool("stream-hot", false, "run the stream experiment hot instead of cold")
		strOverlap  = flag.Bool("stream-overlap", false, "use the overlapped-I/O clock composition for the stream experiment")
		mutWriters  = flag.Int("mutate-writers", 4, "concurrent writer clients for the mutate experiment")
		mutOps      = flag.Int("mutate-ops", 75, "commits per writer for the mutate experiment")
		mutReaders  = flag.Int("mutate-readers", 4, "concurrent reader clients for the mutate experiment")
		mutReadOps  = flag.Int("mutate-read-ops", 200, "reads per reader for the mutate experiment")
		mutCompact  = flag.Int("mutate-compact", 50, "delta entries that trigger compaction in the mutate experiment (-1 never compacts)")
		mutGuard    = flag.Int("mutate-guard", 12, "generated queries for the mutate experiment's byte-identity guard")
		version     = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: swanbench [flags] <experiment>\nexperiments: table1 fig1 table2 table4 table5 fig5 table6 table7 fig6 fig7 workloads load stream observe mutate sql gen all\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println("swanbench", buildinfo.Get())
		return
	}
	if *bgpText != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "swanbench: -bgp runs instead of an experiment; drop the experiment argument")
			os.Exit(2)
		}
	} else if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *reportPath != "" && flag.Arg(0) == "all" {
		fmt.Fprintln(os.Stderr, "swanbench: -report names one experiment's file; run load, stream, observe or mutate on its own")
		os.Exit(2)
	}
	cfg := datagen.Config{Triples: *triples, Properties: *props, Interesting: *interesting, Seed: *seed}

	if flag.Arg(0) == "gen" {
		ds, err := datagen.Generate(cfg)
		fail(err)
		fail(rdf.WriteNTriples(os.Stdout, ds.Graph))
		return
	}

	fmt.Fprintf(os.Stderr, "generating %d triples over %d properties (seed %d)...\n", cfg.Triples, cfg.Properties, cfg.Seed)
	w, err := bench.NewWorkload(cfg)
	fail(err)

	if *bgpText != "" {
		runUserBGP(w, *bgpText)
		return
	}

	// The generated-workload experiments share one seed: -bgp-seed, or
	// -seed when it is unset.
	wseed := *bgpSeed
	if wseed == 0 {
		wseed = *seed
	}
	run := func(name string) {
		switch name {
		case "table1":
			section("Table 1: data set details")
			fmt.Print(bench.Table1(w))
		case "fig1":
			section("Figure 1: cumulative frequency distributions")
			fmt.Print(bench.FormatFig1(bench.Fig1(w, 20)))
		case "table2":
			section("Table 2: coverage of the query space")
			fmt.Print(bench.Table2(w))
		case "table4":
			section("Table 4: repetition results (C-Store, machines A and B)")
			rows, err := bench.Table4(w)
			fail(err)
			fmt.Print(bench.FormatTable4(rows))
		case "table5":
			section("Table 5: data relevant to a query")
			rows, err := bench.Table5(w)
			fail(err)
			fmt.Print(bench.FormatTable5(rows))
		case "fig5":
			section("Figure 5: I/O read history for q3 and q5")
			series, err := bench.Fig5(w, 20)
			fail(err)
			fmt.Print(bench.FormatFig5(series))
		case "table6":
			section("Table 6: experimental results for cold runs")
			systems, err := bench.FullGrid(w)
			fail(err)
			res, err := bench.RunGrid(systems, bench.Cold)
			fail(err)
			fmt.Print(bench.FormatGrid(res))
		case "table7":
			section("Table 7: experimental results for hot runs")
			systems, err := bench.FullGrid(w)
			fail(err)
			res, err := bench.RunGrid(systems, bench.Hot)
			fail(err)
			fmt.Print(bench.FormatGrid(res))
		case "fig6":
			section("Figure 6: execution time vs number of properties")
			pts, err := bench.Fig6(w, *fig6Steps)
			fail(err)
			fmt.Print(bench.FormatFig6(pts))
		case "fig7":
			section("Figure 7: scalability experiment (property splitting)")
			pts, err := bench.Fig7(w, *fig7Max, *fig7Steps, *seed+1)
			fail(err)
			fmt.Print(bench.FormatFig7(pts))
		case "workloads":
			section(fmt.Sprintf("Workloads: %d generated BGP queries (seed %d) through the query compiler", *bgpCount, wseed))
			systems, err := bench.BGPSystems(w)
			fail(err)
			res, err := bench.RunBGPWorkload(w, systems, *bgpCount, wseed, bench.Cold)
			fail(err)
			fmt.Print(bench.FormatBGPWorkload(res, systems, bench.Cold))
		case "load":
			workers := *loadWorkers
			if workers <= 0 {
				workers = runtime.NumCPU()
			}
			section(fmt.Sprintf("Load: bulk ingest, sequential vs %d workers", workers))
			report, err := bench.RunLoad(w, bench.LoadOptions{
				Workers: workers, ChunkBytes: *loadChunk, SkipQueries: *loadQuick,
			})
			fail(err)
			fmt.Print(bench.FormatLoad(report))
			writeReport(*reportPath, report)
		case "stream":
			mode := bench.Cold
			if *strHot {
				mode = bench.Hot
			}
			section(fmt.Sprintf("Stream: pipelined vs drained executor configuration, %d LIMIT queries (seed %d), %s runs", *strQueries, wseed, mode))
			systems, err := bench.BGPSystems(w)
			fail(err)
			report, err := bench.RunStream(w, systems, bench.StreamOptions{
				Queries: *strQueries, Seed: wseed, Mode: mode, Overlapped: *strOverlap,
			})
			if report != nil {
				fmt.Print(bench.FormatStream(report))
				writeReport(*reportPath, report)
			}
			fail(err)
		case "observe":
			section(fmt.Sprintf("Observe: sinks on vs off through the serving layer, %d generated queries (seed %d)", *bgpCount, wseed))
			systems, err := bench.BGPSystems(w)
			fail(err)
			// A sink above the overhead limit still yields the full report:
			// print and write it before failing.
			report, err := bench.RunObserve(w, systems, *bgpCount, wseed)
			if report != nil {
				fmt.Print(bench.FormatObserve(report))
				writeReport(*reportPath, report)
			}
			fail(err)
		case "mutate":
			section(fmt.Sprintf("Mutate: %d writers × %d commits, %d readers × %d reads through HTTP (seed %d)", *mutWriters, *mutOps, *mutReaders, *mutReadOps, wseed))
			report, err := bench.RunMutate(w, bench.MutateOptions{
				Writers: *mutWriters, Ops: *mutOps,
				Readers: *mutReaders, ReadOps: *mutReadOps,
				CompactEvery: *mutCompact, GuardQueries: *mutGuard,
				Seed: wseed,
			})
			fail(err)
			fmt.Print(bench.FormatMutate(report))
			writeReport(*reportPath, report)
		case "sql":
			section("Generated SQL (triple-store, then vertically-partitioned)")
			names := make([]string, 0, len(w.Cat.AllProps))
			for _, p := range w.Cat.AllProps {
				names = append(names, fmt.Sprintf("prop_%d", p))
			}
			for _, q := range core.BenchmarkQueries() {
				ts, err := core.TripleSQL(q)
				fail(err)
				fmt.Printf("-- %v (triple-store)\n%s\n\n", q, ts)
				_, st, err := core.VertSQL(q, names)
				fail(err)
				fmt.Printf("-- %v (vertically-partitioned): %d unions, %d joins, %d table refs, %d bytes of SQL\n\n",
					q, st.Unions, st.Joins, st.Tables, st.Bytes)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if flag.Arg(0) == "all" {
		for _, name := range []string{"table1", "fig1", "table2", "table4", "table5", "fig5", "table6", "table7", "fig6", "fig7", "workloads", "load", "stream", "observe", "mutate"} {
			run(name)
		}
		return
	}
	run(flag.Arg(0))
}

// runUserBGP compiles one user-supplied query, prints the chosen join
// order and estimated cost, runs it on all four schemes (cold and hot),
// and decodes a sample of the result through the dictionary.
func runUserBGP(w *bench.Workload, text string) {
	compiled, err := bgp.CompileText(text, w.DS.Graph.Dict, w.Estimator())
	fail(err)
	section("BGP query")
	fmt.Printf("query:     %s\n", text)
	fmt.Printf("columns:   %s\n", strings.Join(compiled.Cols, ", "))
	fmt.Printf("est. cost: %.0f\n", compiled.Cost)
	for _, step := range compiled.Order {
		fmt.Printf("join:      %s\n", step)
	}
	fmt.Println()

	systems, err := bench.BGPSystems(w)
	fail(err)
	fmt.Printf("%-18s %12s %12s %12s %12s %8s\n",
		"system", "cold real", "cold user", "hot real", "hot user", "rows")
	var sample *rel.Rel
	for _, sys := range systems {
		cold, res, err := sys.MeasurePlan(compiled.Root, bench.Cold)
		fail(err)
		hot, _, err := sys.MeasurePlan(compiled.Root, bench.Hot)
		fail(err)
		if sample == nil {
			sample = res
		} else if !rel.Equal(sample, res) {
			fail(fmt.Errorf("%s returned a different result", sys.Name))
		}
		cr, cu := cold.Seconds()
		hr, hu := hot.Seconds()
		fmt.Printf("%-18s %11.3fs %11.3fs %11.3fs %11.3fs %8d\n",
			sys.Name, cr, cu, hr, hu, res.Len())
	}

	fmt.Printf("\nresult (%d rows", sample.Len())
	show := sample.Len()
	if show > 10 {
		show = 10
		fmt.Printf(", first %d", show)
	}
	fmt.Println("):")
	d := w.DS.Graph.Dict
	for i := 0; i < show; i++ {
		row := sample.Row(i)
		parts := make([]string, len(row))
		for j, v := range row {
			// Aggregate counts are plain numbers, not dictionary ids; an
			// unbound OPTIONAL variable is NULL, not a term.
			switch {
			case compiled.Counts[compiled.Cols[j]]:
				parts[j] = fmt.Sprint(v)
			case rdf.ID(v) == rdf.NoID:
				parts[j] = "NULL"
			default:
				parts[j] = d.Term(rdf.ID(v)).String()
			}
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
}

// writeReport serializes an experiment's report to the -report file, if
// one was named.
func writeReport(path string, report any) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(report, "", "  ")
	fail(err)
	fail(os.WriteFile(path, append(data, '\n'), 0o644))
	fmt.Fprintf(os.Stderr, "report written to %s\n", path)
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "swanbench:", err)
		os.Exit(1)
	}
}
