// Package btree implements the disk-backed B+tree used by the row-store
// engine for clustered tables and secondary indices.
//
// Trees are bulk-loaded from sorted data and read-only afterwards, matching
// the benchmark conventions ("database loading, clustering and index
// construction are all kept outside the scope of the benchmark"). All
// indices are covering: an index on PSO stores the full permuted triple, so
// no base-table lookups are ever needed — the same property the paper relies
// on when it defines "all permutations of (property, subject, object)".
//
// The tree supports key-prefix compression: within a leaf, an entry stores
// only the key fields that differ from its predecessor. This is the
// mechanism behind the paper's observation that "mature B+tree
// implementations support key-prefix compression, thus in practice not
// storing the entire property column" for PSO-clustered triple tables.
package btree

import (
	"fmt"

	"blackswan/internal/simio"
)

// MaxWidth is the largest key width supported (subject, property, object).
const MaxWidth = 3

// Key is a fixed-size composite key; a tree of width w uses fields [0,w).
type Key [MaxWidth]uint64

// Compare orders a against b on the first w fields.
func Compare(a, b Key, w int) int {
	for i := 0; i < w; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sharedFields counts leading key fields equal between a and b (up to w).
func sharedFields(a, b Key, w int) int {
	n := 0
	for n < w && a[n] == b[n] {
		n++
	}
	return n
}

// descentCPUNs is the baseline CPU charge for one root-to-leaf descent.
const descentCPUNs = 1500

// Tree is a read-only bulk-loaded B+tree. It is not safe for concurrent
// use with the same simio.Store, which is single-threaded by design.
type Tree struct {
	store    *simio.Store
	file     simio.FileID
	name     string
	width    int
	compress bool

	leaves  [][]Key // leaf i holds leaves[i]
	leafOff []int64 // byte offset of leaf i in file
	sep     []Key   // first key of each leaf
	count   int

	height     int   // number of levels including the leaf level
	innerStart int64 // file offset where inner-node pages begin
	innerPages []int64
}

// Config controls bulk loading.
type Config struct {
	// Name labels the tree's backing file in diagnostics.
	Name string
	// Width is the number of significant key fields (1..3).
	Width int
	// PrefixCompress enables key-prefix compression inside leaves.
	PrefixCompress bool
}

// BulkLoad builds a tree over keys, which must already be sorted under
// Compare with cfg.Width (duplicates allowed). The tree takes ownership of
// keys: its leaves are views of the array, so the caller must not modify
// it afterwards. The backing file is created on store and sized according
// to the (possibly compressed) leaf payloads plus inner nodes.
func BulkLoad(store *simio.Store, cfg Config, keys []Key) (*Tree, error) {
	if cfg.Width < 1 || cfg.Width > MaxWidth {
		return nil, fmt.Errorf("btree: width %d out of range", cfg.Width)
	}
	for i := 1; i < len(keys); i++ {
		if Compare(keys[i-1], keys[i], cfg.Width) > 0 {
			return nil, fmt.Errorf("btree %q: keys not sorted at %d", cfg.Name, i)
		}
	}
	t := &Tree{
		store:    store,
		file:     store.CreateFile(cfg.Name),
		name:     cfg.Name,
		width:    cfg.Width,
		compress: cfg.PrefixCompress,
		count:    len(keys),
	}
	t.buildLeaves(keys)
	t.buildInner()
	return t, nil
}

// buildLeaves packs keys into page-sized leaves. With compression enabled a
// leaf accepts entries until its *compressed* payload reaches the page size,
// so repetitive key prefixes yield fewer, denser pages and therefore less
// I/O — exactly how PSO clustering wins in the paper. Each leaf is the
// sub-slice keys[lo:hi:hi], capacity-trimmed so that no append through one
// leaf can reach its neighbour.
func (t *Tree) buildLeaves(keys []Key) {
	page := t.store.PageSize()
	entrySize := int64(t.width * 8)
	lo := 0
	var curBytes int64
	flush := func(hi int) {
		if hi == lo {
			return
		}
		t.sep = append(t.sep, keys[lo])
		t.leafOff = append(t.leafOff, int64(len(t.leaves))*page)
		t.leaves = append(t.leaves, keys[lo:hi:hi])
		t.store.Extend(t.file, page)
		lo = hi
		curBytes = 0
	}
	for i, k := range keys {
		sz := entrySize
		if t.compress && i > lo {
			shared := sharedFields(keys[i-1], k, t.width)
			sz = int64((t.width-shared)*8) + 1
		}
		if curBytes+sz > page && i > lo {
			flush(i)
			sz = entrySize // first entry in a leaf is stored in full
		}
		curBytes += sz
	}
	flush(len(keys))
}

// buildInner sizes the simulated inner levels: fanout separators per page,
// stacked until one root page remains. Inner pages live after the leaves in
// the same file and are touched once per descent.
func (t *Tree) buildInner() {
	page := t.store.PageSize()
	fanout := int(page / int64(t.width*8+8))
	if fanout < 2 {
		fanout = 2
	}
	t.innerStart = int64(len(t.leaves)) * page
	t.height = 1
	level := len(t.leaves)
	off := t.innerStart
	for level > 1 {
		pages := (level + fanout - 1) / fanout
		for i := 0; i < pages; i++ {
			t.innerPages = append(t.innerPages, off)
			t.store.Extend(t.file, page)
			off += page
		}
		level = pages
		t.height++
	}
}

// Name returns the tree's label.
func (t *Tree) Name() string { return t.name }

// Width returns the number of significant key fields.
func (t *Tree) Width() int { return t.width }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.count }

// Height returns the number of levels, counting the leaf level.
func (t *Tree) Height() int { return t.height }

// SizeBytes returns the on-disk footprint including inner nodes.
func (t *Tree) SizeBytes() int64 { return t.store.FileSize(t.file) }

// Leaves returns the number of leaf pages.
func (t *Tree) Leaves() int { return len(t.leaves) }

// chargeDescent simulates one root-to-leaf walk: each inner level costs one
// page read (random within the inner region), plus a little CPU.
func (t *Tree) chargeDescent(leaf int) {
	t.store.ChargeCPU(descentCPUNs)
	if len(t.innerPages) == 0 {
		return
	}
	page := t.store.PageSize()
	// Touch one page per inner level: pick deterministically by leaf index.
	levels := t.height - 1
	idx := 0
	remaining := len(t.innerPages)
	for l := 0; l < levels && idx < remaining; l++ {
		p := t.innerPages[(leaf+l*7)%len(t.innerPages)]
		t.store.ReadRange(t.file, p, page)
		idx++
	}
}

// readAheadLeaves is how many consecutive leaves a sequential scan fetches
// per I/O request. Database scans issue large read-ahead requests rather
// than page-sized ones; without this, per-request overhead would dominate
// every range scan.
const readAheadLeaves = 32

// readLeaf charges the I/O for visiting leaf i as part of a scan that will
// continue up to leaf limit (exclusive): the request covers a read-ahead
// window of consecutive leaves.
func (t *Tree) readLeaf(i, limit int) {
	end := i + readAheadLeaves
	if end > limit {
		end = limit
	}
	page := t.store.PageSize()
	t.store.ReadRange(t.file, t.leafOff[i], int64(end-i)*page)
}

// findLeaf returns the index of the first leaf that may contain an entry
// matching key on its first w fields. Because duplicates can span leaf
// boundaries, this is the leaf *before* the first separator that compares
// greater than or equal to key (its tail may hold matching entries).
func (t *Tree) findLeaf(key Key, w int) int {
	lo, hi := 0, len(t.sep)
	for lo < hi {
		mid := (lo + hi) / 2
		if Compare(t.sep[mid], key, w) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// Contains reports whether an entry with exactly key (on all width fields)
// exists — the point-query pattern p1 of the paper's query space.
func (t *Tree) Contains(key Key) bool {
	return t.NewCursor(key, t.width).Next(1) != nil
}

// EstimatePrefixFraction estimates, from leaf separators only (catalog
// statistics — no I/O is charged), the fraction of the tree's leaves a
// prefix scan would touch. Query optimizers use it to decide whether an
// unclustered index range is worth its random access pattern.
func (t *Tree) EstimatePrefixFraction(prefix Key, plen int) float64 {
	if len(t.sep) == 0 {
		return 0
	}
	if plen == 0 {
		return 1
	}
	lo, hi := 0, len(t.sep)
	for lo < hi {
		mid := (lo + hi) / 2
		if Compare(t.sep[mid], prefix, plen) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	hi = len(t.sep)
	for lo < hi {
		mid := (lo + hi) / 2
		if Compare(t.sep[mid], prefix, plen) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	leaves := lo - start + 1 // the run may spill into the preceding leaf
	return float64(leaves) / float64(len(t.sep))
}
