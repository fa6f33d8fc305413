package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"blackswan/internal/simio"
)

func newStore() *simio.Store {
	return simio.NewStore(simio.Config{Machine: simio.MachineA(), PoolBytes: 1 << 30, PageSize: 4096})
}

func sortedKeys(n int, w int, seed int64) []Key {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]Key, n)
	for i := range ks {
		for f := 0; f < w; f++ {
			ks[i][f] = uint64(rng.Intn(50) + 1)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return Compare(ks[i], ks[j], w) < 0 })
	return ks
}

func mustLoad(t *testing.T, s *simio.Store, cfg Config, keys []Key) *Tree {
	t.Helper()
	tr, err := BulkLoad(s, cfg, keys)
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	return tr
}

// scan drains a cursor over the prefix, pulling runs of at most step entries.
func scan(tr *Tree, prefix Key, plen, step int) []Key {
	var out []Key
	c := tr.NewCursor(prefix, plen)
	for run := c.Next(step); run != nil; run = c.Next(step) {
		out = append(out, run...)
	}
	return out
}

// scanAll drains a full-tree cursor in one unbounded pull per leaf.
func scanAll(tr *Tree) []Key { return scan(tr, Key{}, 0, math.MaxInt) }

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	s := newStore()
	keys := []Key{{2, 1, 1}, {1, 1, 1}}
	if _, err := BulkLoad(s, Config{Name: "bad", Width: 3}, keys); err == nil {
		t.Fatal("unsorted keys accepted")
	}
	if _, err := BulkLoad(s, Config{Name: "bad", Width: 0}, nil); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := BulkLoad(s, Config{Name: "bad", Width: 4}, nil); err == nil {
		t.Fatal("width 4 accepted")
	}
}

func TestScanReturnsAllInOrder(t *testing.T) {
	s := newStore()
	keys := sortedKeys(5000, 3, 1)
	tr := mustLoad(t, s, Config{Name: "t", Width: 3}, keys)
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := scanAll(tr)
	if len(got) != len(keys) {
		t.Fatalf("Scan returned %d of %d", len(got), len(keys))
	}
	for i := range got {
		if got[i] != keys[i] {
			t.Fatalf("entry %d = %v, want %v", i, got[i], keys[i])
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	// An abandoned cursor yields exactly what was asked of it and never pays
	// for the leaves it did not visit.
	s := newStore()
	tr := mustLoad(t, s, Config{Name: "t", Width: 3}, sortedKeys(20000, 3, 2))
	s.DropCaches()
	s.ResetStats()
	c, n := tr.NewCursor(Key{}, 0), 0
	for n < 10 {
		n += len(c.Next(10 - n))
	}
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
	early := s.Stats().BytesRead
	s.DropCaches()
	s.ResetStats()
	scanAll(tr)
	if full := s.Stats().BytesRead; early == 0 || early*2 > full {
		t.Fatalf("abandoned scan read %d bytes, full scan %d", early, full)
	}
}

func TestScanPrefixMatchesLinearFilter(t *testing.T) {
	s := newStore()
	keys := sortedKeys(8000, 3, 3)
	tr := mustLoad(t, s, Config{Name: "t", Width: 3}, keys)
	for _, plen := range []int{1, 2, 3} {
		prefix := keys[len(keys)/2]
		var want []Key
		for _, k := range keys {
			if Compare(k, prefix, plen) == 0 {
				want = append(want, k)
			}
		}
		got := scan(tr, prefix, plen, 7)
		if len(got) != len(want) {
			t.Fatalf("plen %d: got %d, want %d", plen, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("plen %d entry %d: %v vs %v", plen, i, got[i], want[i])
			}
		}
	}
}

func TestScanPrefixAbsent(t *testing.T) {
	s := newStore()
	keys := []Key{{1, 1, 1}, {3, 1, 1}}
	tr := mustLoad(t, s, Config{Name: "t", Width: 3}, keys)
	if n := len(scan(tr, Key{2}, 1, 4)); n != 0 {
		t.Fatalf("absent prefix matched %d entries", n)
	}
	// Prefix below the minimum and above the maximum.
	if n := len(scan(tr, Key{0}, 1, 4)) + len(scan(tr, Key{9}, 1, 4)); n != 0 {
		t.Fatalf("out-of-range prefixes matched %d entries", n)
	}
}

func TestScanPrefixZeroLenIsFullScan(t *testing.T) {
	s := newStore()
	keys := sortedKeys(100, 2, 4)
	tr := mustLoad(t, s, Config{Name: "t", Width: 2}, keys)
	if n := len(scan(tr, Key{}, 0, 9)); n != len(keys) {
		t.Fatalf("plen 0 visited %d of %d", n, len(keys))
	}
}

func TestContains(t *testing.T) {
	s := newStore()
	keys := []Key{{1, 2, 3}, {1, 2, 4}, {5, 5, 5}}
	tr := mustLoad(t, s, Config{Name: "t", Width: 3}, keys)
	if !tr.Contains(Key{1, 2, 3}) || !tr.Contains(Key{5, 5, 5}) {
		t.Fatal("present key reported absent")
	}
	if tr.Contains(Key{1, 2, 5}) || tr.Contains(Key{9, 9, 9}) {
		t.Fatal("absent key reported present")
	}
}

func TestCountPrefix(t *testing.T) {
	s := newStore()
	keys := []Key{{1, 1, 1}, {1, 2, 1}, {1, 2, 2}, {2, 1, 1}}
	tr := mustLoad(t, s, Config{Name: "t", Width: 3}, keys)
	if got := len(scan(tr, Key{1}, 1, 2)); got != 3 {
		t.Fatalf("prefix (1) holds %d entries", got)
	}
	if got := len(scan(tr, Key{1, 2}, 2, 2)); got != 2 {
		t.Fatalf("prefix (1,2) holds %d entries", got)
	}
}

func TestEmptyTree(t *testing.T) {
	s := newStore()
	tr := mustLoad(t, s, Config{Name: "empty", Width: 3}, nil)
	if tr.Len() != 0 || tr.Leaves() != 0 {
		t.Fatal("empty tree has entries")
	}
	if len(scanAll(tr)) != 0 || len(scan(tr, Key{1}, 1, 4)) != 0 {
		t.Fatal("scan of empty tree yielded")
	}
	if tr.Contains(Key{1, 1, 1}) {
		t.Fatal("empty tree contains a key")
	}
}

func TestPrefixCompressionShrinksRepetitiveKeys(t *testing.T) {
	// PSO-ordered triples: the property field is constant over long runs,
	// so compression must shrink the file substantially.
	s := newStore()
	var keys []Key
	for p := uint64(1); p <= 4; p++ {
		for sub := uint64(1); sub <= 8000; sub++ {
			keys = append(keys, Key{p, sub, sub % 97})
		}
	}
	plain := mustLoad(t, s, Config{Name: "plain", Width: 3}, keys)
	comp := mustLoad(t, s, Config{Name: "comp", Width: 3, PrefixCompress: true}, keys)
	if comp.SizeBytes() >= plain.SizeBytes() {
		t.Fatalf("compression did not shrink: %d vs %d", comp.SizeBytes(), plain.SizeBytes())
	}
	// One shared field of three saves 8 of 24 bytes per entry (minus the
	// 1-byte header), so the ratio must approach 24/17 ≈ 1.4.
	ratio := float64(plain.SizeBytes()) / float64(comp.SizeBytes())
	if ratio < 1.3 {
		t.Fatalf("compression ratio only %.2f", ratio)
	}
	// Content must be identical.
	a, b := len(scanAll(plain)), len(scanAll(comp))
	if a != b || a != len(keys) {
		t.Fatalf("scan counts differ: %d vs %d", a, b)
	}
}

func TestScanChargesIO(t *testing.T) {
	s := newStore()
	tr := mustLoad(t, s, Config{Name: "t", Width: 3}, sortedKeys(20000, 3, 5))
	s.Clock().Reset()
	s.ResetStats()
	scanAll(tr)
	if s.Stats().BytesRead == 0 {
		t.Fatal("cold scan read no bytes")
	}
	if s.Clock().IO() == 0 {
		t.Fatal("cold scan charged no I/O time")
	}
	cold := s.Clock().IO()
	// Hot scan: no physical I/O.
	s.Clock().Reset()
	scanAll(tr)
	if s.Clock().IO() >= cold/10 {
		t.Fatalf("hot scan too expensive: %v vs cold %v", s.Clock().IO(), cold)
	}
}

func TestPrefixScanReadsFewerBytesThanFullScan(t *testing.T) {
	s := newStore()
	var keys []Key
	for p := uint64(1); p <= 100; p++ {
		for i := uint64(0); i < 500; i++ {
			keys = append(keys, Key{p, i, i})
		}
	}
	tr := mustLoad(t, s, Config{Name: "t", Width: 3}, keys)
	s.DropCaches()
	s.ResetStats()
	scan(tr, Key{50}, 1, math.MaxInt)
	prefixBytes := s.Stats().BytesRead
	s.DropCaches()
	s.ResetStats()
	scanAll(tr)
	fullBytes := s.Stats().BytesRead
	if prefixBytes*10 > fullBytes {
		t.Fatalf("prefix scan read %d bytes, full scan %d — expected ≪", prefixBytes, fullBytes)
	}
}

func TestTreeMetadata(t *testing.T) {
	s := newStore()
	tr := mustLoad(t, s, Config{Name: "meta", Width: 2}, sortedKeys(10000, 2, 6))
	if tr.Name() != "meta" || tr.Width() != 2 {
		t.Fatal("metadata wrong")
	}
	if tr.Height() < 2 {
		t.Fatalf("Height = %d for 10k keys", tr.Height())
	}
	if tr.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not positive")
	}
}

func TestScanPrefixPanicsOnBadPlen(t *testing.T) {
	s := newStore()
	tr := mustLoad(t, s, Config{Name: "t", Width: 2}, sortedKeys(10, 2, 7))
	defer func() {
		if recover() == nil {
			t.Fatal("plen > width did not panic")
		}
	}()
	tr.NewCursor(Key{1, 1, 1}, 3)
}

func TestPropertyScanPrefixCompleteAndSound(t *testing.T) {
	// For random data sets, a cursor over the prefix (k) returns exactly the
	// linear filter result, with compression on and off.
	f := func(seed int64, compress bool) bool {
		n := 500
		keys := sortedKeys(n, 3, seed)
		s := newStore()
		tr, err := BulkLoad(s, Config{Name: "q", Width: 3, PrefixCompress: compress}, keys)
		if err != nil {
			return false
		}
		probe := keys[n/3]
		want := 0
		for _, k := range keys {
			if k[0] == probe[0] {
				want++
			}
		}
		got := scan(tr, Key{probe[0]}, 1, 16)
		for _, k := range got {
			if k[0] != probe[0] {
				return false
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
