package simio

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAccounting(t *testing.T) {
	c := NewClock()
	c.ChargeCPU(3 * time.Millisecond)
	c.ChargeIO(7 * time.Millisecond)
	if c.User() != 3*time.Millisecond {
		t.Fatalf("User = %v", c.User())
	}
	if c.IO() != 7*time.Millisecond {
		t.Fatalf("IO = %v", c.IO())
	}
	if c.Real() != 10*time.Millisecond {
		t.Fatalf("Real = %v", c.Real())
	}
	c.ChargeCPU(-time.Second) // negative charges ignored
	c.ChargeIO(-time.Second)
	if c.Real() != 10*time.Millisecond {
		t.Fatal("negative charge changed the clock")
	}
	c.Reset()
	if c.Real() != 0 {
		t.Fatal("Reset did not zero the clock")
	}
}

func TestMachineTransferTime(t *testing.T) {
	m := Machine{SeqReadMBps: 100}
	if got := m.TransferTime(100 * 1e6); got != time.Second {
		t.Fatalf("TransferTime(100MB) = %v, want 1s", got)
	}
	if got := m.TransferTime(0); got != 0 {
		t.Fatalf("TransferTime(0) = %v", got)
	}
	// Machine B must be roughly 4x faster than machine A at bulk reads.
	a, b := MachineA(), MachineB()
	ratio := float64(a.TransferTime(1e9)) / float64(b.TransferTime(1e9))
	if ratio < 3 || ratio > 5 {
		t.Fatalf("B/A bulk speed ratio = %.2f, want ~4", ratio)
	}
}

func newTestStore(pool int64) *Store {
	return NewStore(Config{Machine: MachineA(), PoolBytes: pool, PageSize: 4096})
}

func TestStoreColdThenHot(t *testing.T) {
	s := newTestStore(1 << 20)
	f := s.CreateFile("triples")
	s.Extend(f, 64*4096)

	s.ReadAll(f)
	cold := s.Clock().Real()
	if cold == 0 {
		t.Fatal("cold read charged no time")
	}
	st := s.Stats()
	if st.BytesRead != 64*4096 {
		t.Fatalf("BytesRead = %d", st.BytesRead)
	}
	if st.PageMisses != 64 || st.PageHits != 0 {
		t.Fatalf("misses=%d hits=%d", st.PageMisses, st.PageHits)
	}

	// Hot: everything resident, no further I/O time.
	s.Clock().Reset()
	s.ReadAll(f)
	if s.Clock().IO() > s.Machine().RequestOverhead {
		t.Fatalf("hot read charged I/O: %v", s.Clock().IO())
	}
	if got := s.Stats().PageHits; got != 64 {
		t.Fatalf("hot hits = %d", got)
	}

	// DropCaches returns to cold behaviour.
	s.DropCaches()
	s.Clock().Reset()
	s.ReadAll(f)
	if s.Clock().IO() < cold/2 {
		t.Fatalf("post-drop read too cheap: %v vs cold %v", s.Clock().IO(), cold)
	}
}

func TestStoreSeekVsSequential(t *testing.T) {
	s := newTestStore(1 << 30)
	f := s.CreateFile("col")
	s.Extend(f, 1024*4096)

	// One bulk read: one seek, bandwidth-bound.
	s.ReadAll(f)
	bulkSeeks := s.Stats().Seeks
	if bulkSeeks != 1 {
		t.Fatalf("bulk read issued %d seeks, want 1", bulkSeeks)
	}

	// Many scattered single-page reads on a fresh store: a seek each.
	s2 := newTestStore(1 << 30)
	g := s2.CreateFile("scattered")
	s2.Extend(g, 1024*4096)
	for p := int64(0); p < 1024; p += 2 { // stride defeats sequential detection
		s2.ReadRange(g, p*4096, 4096)
	}
	if got := s2.Stats().Seeks; got != 512 {
		t.Fatalf("scattered reads issued %d seeks, want 512", got)
	}
	if s2.Clock().IO() <= s.Clock().IO() {
		t.Fatal("scattered I/O should cost more than bulk I/O")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	// Pool of 8 pages; file of 16 pages.
	s := newTestStore(8 * 4096)
	f := s.CreateFile("big")
	s.Extend(f, 16*4096)
	s.ReadAll(f)
	if got := s.Stats().Evictions; got != 8 {
		t.Fatalf("evictions = %d, want 8", got)
	}
	// Re-reading the first page must miss (it was evicted).
	before := s.Stats().PageMisses
	s.ReadRange(f, 0, 4096)
	if s.Stats().PageMisses != before+1 {
		t.Fatal("evicted page did not miss")
	}
}

func TestStoreRepeatedReadsWithTinyPool(t *testing.T) {
	// A pool smaller than the file forces re-reading on every pass — the
	// C-Store effect of Table 5 (data read larger than the database).
	s := newTestStore(4 * 4096)
	f := s.CreateFile("col")
	s.Extend(f, 64*4096)
	for i := 0; i < 3; i++ {
		s.ReadAll(f)
	}
	// Nearly everything must be re-read on each pass (the pool retains at
	// most a handful of pages between passes).
	if got, min := s.Stats().BytesRead, int64(3*60*4096); got < min {
		t.Fatalf("BytesRead = %d, want >= %d (≈3 full passes)", got, min)
	}
}

func TestReadRangeBounds(t *testing.T) {
	s := newTestStore(1 << 20)
	f := s.CreateFile("f")
	s.Extend(f, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds read did not panic")
		}
	}()
	s.ReadRange(f, 0, 8192)
}

func TestReadRangeZeroLength(t *testing.T) {
	s := newTestStore(1 << 20)
	f := s.CreateFile("f")
	s.Extend(f, 4096)
	s.ReadRange(f, 0, 0)
	if s.Stats().Requests != 0 {
		t.Fatal("zero-length read counted as a request")
	}
}

func TestUnknownFilePanics(t *testing.T) {
	s := newTestStore(1 << 20)
	for _, fn := range []func(){
		func() { s.ReadRange(99, 0, 1) },
		func() { s.Extend(99, 1) },
		func() { s.FileSize(99) },
		func() { s.FileName(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("operation on unknown file did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestTraceCumulative(t *testing.T) {
	tr := NewTrace()
	tr.Record(1*time.Second, 100)
	tr.Record(2*time.Second, 200)
	tr.Record(4*time.Second, 300)
	if tr.TotalBytes() != 600 {
		t.Fatalf("TotalBytes = %d", tr.TotalBytes())
	}
	pts := tr.Cumulative(4)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[len(pts)-1].Bytes != 600 {
		t.Fatalf("final cumulative = %d", pts[len(pts)-1].Bytes)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Bytes < pts[i-1].Bytes {
			t.Fatal("cumulative curve not monotone")
		}
	}
	tr.Reset()
	if tr.TotalBytes() != 0 || tr.Cumulative(4) != nil {
		t.Fatal("Reset did not clear the trace")
	}
}

func TestStoreTraceMatchesStats(t *testing.T) {
	f := func(pages uint8) bool {
		n := int64(pages%32) + 1
		s := newTestStore(1 << 30)
		fid := s.CreateFile("f")
		s.Extend(fid, n*4096)
		s.ReadAll(fid)
		return s.Trace().TotalBytes() == s.Stats().BytesRead
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChargeCPUScales(t *testing.T) {
	a := NewStore(Config{Machine: Machine{Name: "fast", SeqReadMBps: 100, CPUScale: 1.0}})
	b := NewStore(Config{Machine: Machine{Name: "slow", SeqReadMBps: 100, CPUScale: 2.0}})
	a.ChargeCPU(1000)
	b.ChargeCPU(1000)
	if b.Clock().User() != 2*a.Clock().User() {
		t.Fatalf("CPUScale ignored: %v vs %v", a.Clock().User(), b.Clock().User())
	}
	a.ChargeCPU(-5)
	if a.Clock().User() != 1000 {
		t.Fatal("negative CPU charge applied")
	}
}

// TestCPUClockIndependentOfChargeSplit pins the clock's two guarantees. On
// machine A (CPUScale 1.0) user time is exactly the baseline nanoseconds
// charged. On machine B (CPUScale 1.05) one charge of n·k ns reads the same
// as n charges of k ns — scaling each call and truncating would lose up to
// a nanosecond per call — and Reset clears the accumulated baseline.
func TestCPUClockIndependentOfChargeSplit(t *testing.T) {
	a := NewStore(Config{Machine: MachineA()})
	for _, ns := range []int64{1, 7, 25_000, 333} {
		a.ChargeCPU(ns)
	}
	if got := a.Clock().User(); got != 25_341 {
		t.Fatalf("machine A charged %v for 25341 baseline ns", got)
	}

	const n, k = 1000, 7
	whole := NewStore(Config{Machine: MachineB()})
	whole.ChargeCPU(n * k)
	split := NewStore(Config{Machine: MachineB()})
	for i := 0; i < n; i++ {
		split.ChargeCPU(k)
	}
	if whole.Clock().User() != split.Clock().User() {
		t.Fatalf("one charge of %d ns reads %v, %d charges of %d ns read %v",
			n*k, whole.Clock().User(), n, k, split.Clock().User())
	}
	if want := time.Duration(float64(n*k) * MachineB().CPUScale); whole.Clock().User() != want {
		t.Fatalf("machine B charged %v for %d baseline ns, want %v", whole.Clock().User(), n*k, want)
	}
	if cpu, _, _ := split.Charges(); cpu != int64(whole.Clock().User()) {
		t.Fatalf("Charges reports %d cpu ns, clock reads %v", cpu, whole.Clock().User())
	}
	split.Clock().Reset()
	split.ChargeCPU(k)
	if want := time.Duration(float64(k) * MachineB().CPUScale); split.Clock().User() != want {
		t.Fatalf("after Reset, %d ns reads %v, want %v", k, split.Clock().User(), want)
	}
}

func TestTotalBytes(t *testing.T) {
	s := newTestStore(1 << 20)
	f1 := s.CreateFile("a")
	f2 := s.CreateFile("b")
	s.Extend(f1, 100)
	s.Extend(f2, 200)
	if s.TotalBytes() != 300 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
	if s.FileName(f1) != "a" || s.FileSize(f2) != 200 {
		t.Fatal("file metadata wrong")
	}
}
