package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
)

// corpus renders a generated Barton-shaped dataset to N-Triples once per
// test binary.
var corpusNT []byte

func corpus(t *testing.T) []byte {
	t.Helper()
	if corpusNT == nil {
		ds, err := datagen.Generate(datagen.Config{Triples: 6000, Properties: 24, Interesting: 8, Seed: 11})
		if err != nil {
			t.Fatalf("datagen: %v", err)
		}
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, ds.Graph); err != nil {
			t.Fatalf("write: %v", err)
		}
		corpusNT = buf.Bytes()
	}
	return corpusNT
}

// TestDeterministicByteIdentical is the determinism contract: for any
// worker count and chunk size, deterministic-mode Load reproduces
// rdf.ReadNTriples exactly — same triples, same identifiers, same
// dictionary bytes — and the derived stats agree.
func TestDeterministicByteIdentical(t *testing.T) {
	nt := corpus(t)
	want, err := rdf.ReadNTriples(bytes.NewReader(nt))
	if err != nil {
		t.Fatalf("sequential read: %v", err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, chunkBytes := range []int{1 << 10, 16 << 10, 1 << 20} {
			got, st, err := Load(bytes.NewReader(nt), Options{
				Workers: workers, ChunkBytes: chunkBytes, Deterministic: true,
			})
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunkBytes, err)
			}
			if !rdf.GraphsIdentical(want, got) {
				t.Fatalf("workers=%d chunk=%d: graph differs from rdf.ReadNTriples", workers, chunkBytes)
			}
			if st.Statements != int64(want.Len()) {
				t.Fatalf("workers=%d: Statements = %d, want %d", workers, st.Statements, want.Len())
			}
			a, b := rdf.ComputeStats(want), rdf.ComputeStats(got)
			if a.Triples != b.Triples || a.DistinctProperties != b.DistinctProperties ||
				a.DistinctSubjects != b.DistinctSubjects || a.DistinctObjects != b.DistinctObjects ||
				a.SubjectObjectOverlap != b.SubjectObjectOverlap ||
				a.DictionaryStrings != b.DictionaryStrings || a.DataSetBytes != b.DataSetBytes {
				t.Fatalf("workers=%d: stats differ", workers)
			}
		}
	}
}

// TestFastModeTermEquivalent checks the fast mode (workers interning as
// they parse): identifier assignment may differ, but the decoded statement
// sequence must equal rdf.ReadNTriples', and the dictionary totals match.
// One worker interns in input order, so its load is the reference's byte
// for byte.
func TestFastModeTermEquivalent(t *testing.T) {
	nt := corpus(t)
	want, err := rdf.ReadNTriples(bytes.NewReader(nt))
	if err != nil {
		t.Fatalf("sequential read: %v", err)
	}
	for _, workers := range []int{1, 2, 6} {
		got, st, err := Load(bytes.NewReader(nt), Options{Workers: workers, ChunkBytes: 8 << 10})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 && !rdf.GraphsIdentical(want, got) {
			t.Fatal("workers=1: graph differs from rdf.ReadNTriples")
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d triples, want %d", workers, got.Len(), want.Len())
		}
		if got.Dict.Len() != want.Dict.Len() || got.Dict.Bytes() != want.Dict.Bytes() {
			t.Fatalf("workers=%d: dictionary totals differ", workers)
		}
		// The triple sequence is order-deterministic even in fast mode;
		// only the identifier values differ. Compare decoded.
		for i := range want.Triples {
			s1, p1, o1 := want.Decode(want.Triples[i])
			s2, p2, o2 := got.Decode(got.Triples[i])
			if s1 != s2 || p1 != p2 || o1 != o2 {
				t.Fatalf("workers=%d: triple %d decodes to (%v %v %v), want (%v %v %v)",
					workers, i, s2, p2, o2, s1, p1, o1)
			}
		}
		if st.Statements != int64(want.Len()) {
			t.Fatalf("workers=%d: Statements = %d, want %d", workers, st.Statements, want.Len())
		}
	}
}

// TestPositionedErrorAcrossChunks places a malformed statement deep
// enough that it lands in a later chunk of a parallel load and checks the
// reported line is absolute.
func TestPositionedErrorAcrossChunks(t *testing.T) {
	var b strings.Builder
	const good = 5000
	for i := 0; i < good; i++ {
		fmt.Fprintf(&b, "<http://x/s%d> <http://x/p> <http://x/o%d> .\n", i, i)
	}
	b.WriteString("<http://x/bad> <http://x/p> .\n") // line good+1: two terms
	for _, opt := range []Options{
		{Workers: 1},
		{Workers: 4, ChunkBytes: 1 << 10},
		{Workers: 4, ChunkBytes: 1 << 10, Deterministic: true},
	} {
		_, _, err := Load(strings.NewReader(b.String()), opt)
		var se *rdf.SyntaxError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: error %v (%T) is not a *rdf.SyntaxError", opt.Workers, err, err)
		}
		if se.Line != good+1 {
			t.Fatalf("workers=%d: SyntaxError.Line = %d, want %d", opt.Workers, se.Line, good+1)
		}
	}
}

// TestChunkerLineAlignment drives the chunker directly over awkward
// shapes: tiny chunks, lines longer than the chunk target, missing final
// newline.
func TestChunkerLineAlignment(t *testing.T) {
	long := strings.Repeat("y", 4096)
	in := "a\nbb\n" + long + "\nccc\nd" // 5 lines, no final newline
	ck := newChunker(strings.NewReader(in), 8)
	var rebuilt strings.Builder
	wantFirst := 1
	for {
		c, ok, err := ck.next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if !ok {
			break
		}
		if c.firstLine != wantFirst {
			t.Fatalf("chunk %d firstLine = %d, want %d", c.index, c.firstLine, wantFirst)
		}
		if n := bytes.LastIndexByte(c.data, '\n'); n >= 0 && n != len(c.data)-1 {
			t.Fatalf("chunk %d not line-aligned: %q", c.index, c.data)
		}
		wantFirst += countLines(c.data)
		rebuilt.Write(c.data)
	}
	if rebuilt.String() != in {
		t.Fatalf("chunks do not reassemble the input: %q", rebuilt.String())
	}
	if wantFirst != 6 {
		t.Fatalf("counted %d lines, want 5", wantFirst-1)
	}
}

// TestLoadEmptyAndCommentOnly handles degenerate inputs.
func TestLoadEmptyAndCommentOnly(t *testing.T) {
	for _, in := range []string{"", "# only a comment\n", "\n\n\n"} {
		g, _, err := Load(strings.NewReader(in), Options{Workers: 4})
		if err != nil {
			t.Fatalf("input %q: %v", in, err)
		}
		if g.Len() != 0 {
			t.Fatalf("input %q: %d triples, want 0", in, g.Len())
		}
	}
}

// TestStatsBreakdown sanity-checks the reported stage breakdown.
func TestStatsBreakdown(t *testing.T) {
	nt := corpus(t)
	_, st, err := Load(bytes.NewReader(nt), Options{Workers: 4, ChunkBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != int64(len(nt)) {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, len(nt))
	}
	if st.Chunks < 2 {
		t.Fatalf("Chunks = %d, want several at a 16KiB target", st.Chunks)
	}
	if st.Lines < st.Statements || st.Statements == 0 {
		t.Fatalf("Lines = %d, Statements = %d", st.Lines, st.Statements)
	}
	if st.ParseBusy <= 0 || st.Wall <= 0 {
		t.Fatalf("stage times missing: %+v", st)
	}
	if st.TriplesPerSec() <= 0 {
		t.Fatal("TriplesPerSec = 0")
	}
}

// TestSimulatedOverlap checks the simulated-clock composition of a load:
// the blocking composition is the sum of the CPU and I/O components, the
// pipelined composition is their max, and the overlap gain is their ratio.
func TestSimulatedOverlap(t *testing.T) {
	nt := corpus(t)
	_, st, err := Load(bytes.NewReader(nt), Options{Workers: 4, ChunkBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.SimCPU <= 0 || st.SimIO <= 0 {
		t.Fatalf("simulated components missing: cpu=%v io=%v", st.SimCPU, st.SimIO)
	}
	if st.SimSync != st.SimCPU+st.SimIO {
		t.Fatalf("SimSync = %v, want SimCPU+SimIO = %v", st.SimSync, st.SimCPU+st.SimIO)
	}
	wantOverlap := st.SimCPU
	if st.SimIO > wantOverlap {
		wantOverlap = st.SimIO
	}
	if st.SimOverlapped != wantOverlap {
		t.Fatalf("SimOverlapped = %v, want max(cpu, io) = %v", st.SimOverlapped, wantOverlap)
	}
	if g := st.OverlapGain(); g < 1 {
		t.Fatalf("OverlapGain = %.3f, want >= 1", g)
	}
	// A failed load still reports its partial volume with consistent sim
	// fields (simulate runs on the error path too).
	_, bad, err := Load(strings.NewReader("<a> <b> .\n"), Options{Workers: 2})
	if err == nil {
		t.Fatal("malformed input loaded successfully")
	}
	if bad.SimSync != bad.SimCPU+bad.SimIO {
		t.Fatalf("failed load SimSync = %v, want %v", bad.SimSync, bad.SimCPU+bad.SimIO)
	}
}
