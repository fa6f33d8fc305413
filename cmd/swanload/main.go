// Command swanload parses an N-Triples file, dictionary-encodes it, and
// reports the Table 1 statistics of the data — the bulk-loading front half
// of the benchmark pipeline, usable on real RDF dumps.
//
// Usage:
//
//	swanload [-cfd] [-parallel N] [-det] [file.nt]
//
// With no file argument it reads standard input. It loads through the
// pipelined ingest subsystem with -parallel N parse workers (0 means one
// per CPU; 1, the default, is one worker, not a separate loader); -det
// selects its deterministic mode, whose output is byte-identical to the
// reference reader rdf.ReadNTriples. Throughput and the per-stage
// breakdown go to standard error, the statistics to standard output.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"blackswan/internal/ingest"
	"blackswan/internal/rdf"
)

func main() {
	cfd := flag.Bool("cfd", false, "also print the Figure 1 cumulative frequency distributions")
	parallel := flag.Int("parallel", 1, "ingest parse-worker count; 0 means one per CPU, 1 is one worker of the same pipeline")
	det := flag.Bool("det", false, "deterministic mode: byte-identical to the reference reader rdf.ReadNTriples")
	chunk := flag.Int("chunk", 0, "scan-stage chunk bytes (default 1MiB)")
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	g, lst, err := ingest.Load(in, ingest.Options{
		Workers: workers, ChunkBytes: *chunk, Deterministic: *det,
	})
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %d statements (%d lines, %.1f MiB) in %.3fs with %d workers: %.0f triples/sec\n",
		lst.Statements, lst.Lines, float64(lst.Bytes)/(1<<20), lst.Wall.Seconds(), lst.Workers, lst.TriplesPerSec())
	fmt.Fprintf(os.Stderr, "stages (busy): scan %.3fs, parse %.3fs, assemble %.3fs over %d chunks\n",
		lst.ScanBusy.Seconds(), lst.ParseBusy.Seconds(), lst.AssembleBusy.Seconds(), lst.Chunks)
	fmt.Fprintf(os.Stderr, "simulated: blocking %.3fs vs pipelined %.3fs (overlap gain %.2fx; cpu %.3fs, io %.3fs)\n",
		lst.SimSync.Seconds(), lst.SimOverlapped.Seconds(), lst.OverlapGain(),
		lst.SimCPU.Seconds(), lst.SimIO.Seconds())

	dups := g.Normalize()
	st := rdf.ComputeStats(g)
	fmt.Print(st.FormatTable1())
	if dups > 0 {
		fmt.Printf("%-52s %14d\n", "duplicate statements removed", dups)
	}
	if *cfd {
		fmt.Println("\n% of total *        properties      subjects       objects")
		props := rdf.CFD(st.PropFreq, st.Triples, 20)
		subjs := rdf.CFD(st.SubjFreq, st.Triples, 20)
		objs := rdf.CFD(st.ObjFreq, st.Triples, 20)
		for i := range props {
			fmt.Printf("%15.1f %14.1f%% %12.1f%% %12.1f%%\n",
				props[i].PctItems, props[i].PctTriples, subjs[i].PctTriples, objs[i].PctTriples)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "swanload:", err)
	os.Exit(1)
}
