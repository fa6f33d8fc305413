// Package ingest is the parallel bulk-load subsystem: it takes an
// N-Triples stream to a dictionary-encoded graph — and on to all four
// loaded storage schemes — using every core the host has, where the
// reference reader in package rdf (rdf.ReadNTriples) runs on one parser.
//
// Loading is one three-stage pipeline, whatever the worker count:
//
//  1. scan: the input splits into line-aligned chunks of roughly
//     ChunkBytes (a line never splits, however long — multi-megabyte
//     literal lines just grow their chunk), each stamped with its absolute
//     starting line number;
//  2. parse + intern: Workers goroutines parse chunks concurrently; in
//     the default (fast) mode each worker interns terms directly into the
//     graph's shared rdf.Dictionary, whose hash-partitioned intern maps
//     and atomic ID counter keep the global identifier space dense without
//     a global lock;
//  3. assemble: chunks rejoin in input order, so the triple sequence is
//     always deterministic; in Deterministic mode interning itself moves
//     here, in input order, which makes the whole load byte-identical to
//     rdf.ReadNTriples (rdf.GraphsIdentical — the determinism contract)
//     at the cost of serializing the intern step.
//
// With one worker the fast mode interns in input order too, so its
// identifiers are the deterministic ones. Malformed statements fail the
// load with a *rdf.SyntaxError carrying the absolute line number, no
// matter which worker hit them. BuildSchemes continues the pipeline past
// the graph: one parallel per-property partition (core.PartitionByProp)
// feeds concurrent builds of all four storage schemes.
package ingest

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blackswan/internal/rdf"
	"blackswan/internal/simio"
)

// Options tunes a bulk load. The zero value is a good default: GOMAXPROCS
// workers, 1 MiB chunks, fast (nondeterministic-ID) mode.
type Options struct {
	// Workers is the parse-stage parallelism. <= 0 defaults to
	// GOMAXPROCS; 1 is one parse worker, whose identifiers come out in
	// first-occurrence order in either mode.
	Workers int
	// ChunkBytes is the scan stage's target chunk size. <= 0 defaults to
	// 1 MiB.
	ChunkBytes int
	// Deterministic moves interning to the ordered assemble stage: the
	// result is byte-identical to rdf.ReadNTriples (same triples, same
	// identifiers, same dictionary), parsing still parallel.
	Deterministic bool
	// Logger receives a structured completion line (statements, wall
	// time, throughput, overlap gain). nil logs nothing.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 1 << 20
	}
	return o
}

// Stats is the per-stage breakdown of one load. The Busy durations are
// active processing time per stage — ParseBusy sums across workers, so it
// exceeds wall time when the pipeline actually ran in parallel.
type Stats struct {
	Workers       int           `json:"workers"`
	Deterministic bool          `json:"deterministic"`
	Chunks        int           `json:"chunks"`
	Lines         int64         `json:"lines"`
	Statements    int64         `json:"statements"`
	Bytes         int64         `json:"bytes"`
	ScanBusy      time.Duration `json:"scanBusyNs"`
	ParseBusy     time.Duration `json:"parseBusyNs"`
	AssembleBusy  time.Duration `json:"assembleBusyNs"`
	Wall          time.Duration `json:"wallNs"`

	// The simulated-clock view of the same load: the scan stage's busy time
	// charges the clock's I/O component (it is the stage that moves bytes)
	// and the parse and assemble stages charge CPU. SimSync composes them
	// synchronously (cpu+io — a loader that blocks on every read) while
	// SimOverlapped composes them with simio.Clock.SetOverlapped
	// (max(cpu,io) — the pipelined loader, whose scanner reads ahead under
	// the parse workers). The gap between the two is the simulated gain of
	// pipelining the load, independent of host scheduling noise.
	SimCPU        time.Duration `json:"simCpuNs"`
	SimIO         time.Duration `json:"simIoNs"`
	SimSync       time.Duration `json:"simSyncNs"`
	SimOverlapped time.Duration `json:"simOverlappedNs"`
}

// simulate fills the simulated-clock fields from the stage busy times.
func (s *Stats) simulate() {
	clk := simio.NewClock()
	clk.ChargeIO(s.ScanBusy)
	clk.ChargeCPU(s.ParseBusy + s.AssembleBusy)
	s.SimCPU = clk.User()
	s.SimIO = clk.IO()
	s.SimSync = clk.Real()
	clk.SetOverlapped(true)
	s.SimOverlapped = clk.Real()
}

// OverlapGain is the ratio of the synchronous to the overlapped simulated
// real time — how much the pipelined composition saves (1 = nothing).
func (s *Stats) OverlapGain() float64 {
	if s.SimOverlapped <= 0 {
		return 1
	}
	return float64(s.SimSync) / float64(s.SimOverlapped)
}

// TriplesPerSec is the load's throughput: statements over wall time.
func (s *Stats) TriplesPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Statements) / s.Wall.Seconds()
}

// stmt is one parsed, not-yet-interned statement (deterministic mode).
type stmt struct {
	s, p, o rdf.Term
}

// parsedChunk is stage 2's output for one chunk.
type parsedChunk struct {
	index   int
	lines   int
	triples []rdf.Triple // fast mode: already interned
	stmts   []stmt       // deterministic mode: interned at assembly
}

// Load parses N-Triples from r into a new graph. The returned graph is
// validated but not normalized (the same contract as rdf.ReadNTriples:
// callers decide when to sort and deduplicate). Stats reports the
// throughput and per-stage breakdown either way, including failed loads'
// partial progress.
func Load(r io.Reader, opt Options) (*rdf.Graph, *Stats, error) {
	opt = opt.withDefaults()
	st := &Stats{Workers: opt.Workers, Deterministic: opt.Deterministic}
	start := time.Now()
	g, err := load(r, opt, st)
	st.Wall = time.Since(start)
	st.simulate()
	if err != nil {
		return nil, st, err
	}
	if verr := g.Validate(); verr != nil {
		return nil, st, verr
	}
	if opt.Logger != nil {
		opt.Logger.Info("ingest complete",
			"statements", st.Statements,
			"wallSecs", st.Wall.Seconds(),
			"workers", st.Workers,
			"triplesPerSec", st.TriplesPerSec(),
			"overlapGain", st.OverlapGain())
	}
	return g, st, nil
}

// load runs the three-stage pipeline across Workers parse goroutines.
func load(r io.Reader, opt Options, st *Stats) (*rdf.Graph, error) {
	g := rdf.NewGraph()

	chunks := make(chan chunk, opt.Workers*2)
	results := make(chan parsedChunk, opt.Workers*2)
	stop := make(chan struct{})
	var failOnce sync.Once
	var failErr error
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			close(stop)
		})
	}

	// Stage 1 — scan: split the input into line-aligned chunks.
	ck := newChunker(r, opt.ChunkBytes)
	var scanBusy atomic.Int64
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		defer close(chunks)
		for {
			t0 := time.Now()
			c, ok, err := ck.next()
			scanBusy.Add(time.Since(t0).Nanoseconds())
			if err != nil {
				fail(fmt.Errorf("ingest: read: %w", err))
				return
			}
			if !ok {
				return
			}
			select {
			case chunks <- c:
			case <-stop:
				return
			}
		}
	}()

	// Stage 2 — parse (and in fast mode intern) concurrently.
	var parseBusy atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var c chunk
				var ok bool
				select {
				case c, ok = <-chunks:
					if !ok {
						return
					}
				case <-stop:
					return
				}
				t0 := time.Now()
				pc, err := parseChunk(c, g.Dict, opt.Deterministic)
				parseBusy.Add(time.Since(t0).Nanoseconds())
				if err != nil {
					fail(err)
					return
				}
				select {
				case results <- pc:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Stage 3 — assemble in input order; deterministic mode interns here.
	pending := make(map[int]parsedChunk)
	nextIdx := 0
	for pc := range results {
		pending[pc.index] = pc
		for {
			p, ok := pending[nextIdx]
			if !ok {
				break
			}
			delete(pending, nextIdx)
			t0 := time.Now()
			if opt.Deterministic {
				for _, s := range p.stmts {
					g.Add(s.s, s.p, s.o)
				}
				st.Statements += int64(len(p.stmts))
			} else {
				g.Triples = append(g.Triples, p.triples...)
				st.Statements += int64(len(p.triples))
			}
			st.AssembleBusy += time.Since(t0)
			st.Chunks++
			st.Lines += int64(p.lines)
			nextIdx++
		}
	}
	<-scanDone // the chunker's counters are safe to read once it returned
	st.ScanBusy = time.Duration(scanBusy.Load())
	st.ParseBusy = time.Duration(parseBusy.Load())
	st.Bytes = ck.bytes
	if failErr != nil {
		return nil, failErr
	}
	return g, nil
}

// parseChunk parses one chunk's lines. In fast mode (deferIntern false)
// terms intern into dict as they parse; in deterministic mode they are
// returned raw for ordered interning by the assemble stage. Parse errors
// carry the absolute input line.
func parseChunk(c chunk, dict rdf.Dict, deferIntern bool) (parsedChunk, error) {
	pc := parsedChunk{index: c.index}
	data := c.data
	lineNo := c.firstLine
	for len(data) > 0 {
		var line []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, nil
		}
		pc.lines++
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 || trimmed[0] == '#' {
			lineNo++
			continue
		}
		s, p, o, err := rdf.ParseStatement(string(trimmed))
		if err != nil {
			return pc, &rdf.SyntaxError{Line: lineNo, Err: err}
		}
		if deferIntern {
			pc.stmts = append(pc.stmts, stmt{s, p, o})
		} else {
			pc.triples = append(pc.triples, rdf.Triple{
				S: dict.Intern(s), P: dict.Intern(p), O: dict.Intern(o),
			})
		}
		lineNo++
	}
	return pc, nil
}
