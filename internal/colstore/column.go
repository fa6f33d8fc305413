// Package colstore implements the column-store stand-in for MonetDB/SQL
// (and, under a restricted I/O profile, for C-Store): tables are sets of
// typed columns, queries execute column-at-a-time over position lists, and
// sorted columns are stored run-length/delta compressed.
//
// The traits the paper attributes to column-stores arise mechanically:
//
//   - a query only performs I/O on the columns (and column ranges) it
//     actually touches, so vertically-partitioned cold runs read little;
//   - selections on the sorted leading column binary-search and read only
//     the qualifying range — with RLE the sorted property column of a
//     PSO-clustered triples table is almost free, the column-store twin of
//     B+tree key-prefix compression;
//   - vectorized operators cost roughly an order of magnitude less CPU per
//     value than the row-store's tuple-at-a-time interpretation;
//   - the C-Store profile (PageAtATime) issues synchronous page-granular
//     reads, which cannot saturate a fast RAID — reproducing the paper's
//     Section 3 observation that quadrupled disk bandwidth barely helps.
package colstore

import (
	"sort"

	"blackswan/internal/simio"
)

// Column is one attribute stored contiguously. Values are kept in memory
// (the simulation's "disk image" is the simio file, used only for I/O
// accounting); Sorted marks ascending order, enabling binary-search access.
type Column struct {
	Name   string
	Sorted bool

	store       *simio.Store
	file        simio.FileID
	vals        []uint64
	diskBytes   int64
	pageAtATime bool
}

// newColumn registers the column's disk image. Sorted columns are stored
// compressed: runs of equal values as (value, length) pairs — the "RLE or
// delta-compression [that] can achieve the same effect on the sorted
// property column" (Section 4.1).
func newColumn(store *simio.Store, name string, vals []uint64, sorted, compress, pageAtATime bool) *Column {
	c := &Column{
		Name:        name,
		Sorted:      sorted,
		store:       store,
		file:        store.CreateFile(name),
		vals:        vals,
		pageAtATime: pageAtATime,
	}
	c.diskBytes = int64(len(vals)) * 8
	if sorted && compress && len(vals) > 0 {
		runs := int64(1)
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[i-1] {
				runs++
			}
		}
		if rle := runs * 16; rle < c.diskBytes {
			c.diskBytes = rle
		}
	}
	if c.diskBytes == 0 {
		c.diskBytes = 1 // zero-length files complicate nothing but bookkeeping
	}
	store.Extend(c.file, c.diskBytes)
	return c
}

// Len returns the number of values.
func (c *Column) Len() int { return len(c.vals) }

// DiskBytes returns the on-disk (possibly compressed) footprint.
func (c *Column) DiskBytes() int64 { return c.diskBytes }

// touch charges the I/O for accessing the value index range [from, to).
// Byte offsets scale proportionally into the compressed image. Under the
// C-Store profile the range is read page by page, each read a separate
// synchronous request.
func (c *Column) touch(from, to int) {
	n := len(c.vals)
	if n == 0 || to <= from {
		return
	}
	if from < 0 {
		from = 0
	}
	if to > n {
		to = n
	}
	off := int64(float64(from) / float64(n) * float64(c.diskBytes))
	end := int64(float64(to)/float64(n)*float64(c.diskBytes)) + 1
	if end > c.diskBytes {
		end = c.diskBytes
	}
	if off >= end {
		off = end - 1
	}
	if !c.pageAtATime {
		c.store.ReadRange(c.file, off, end-off)
		return
	}
	page := c.store.PageSize()
	for p := off / page; p*page < end; p++ {
		start := p * page
		l := page
		if start+l > c.diskBytes {
			l = c.diskBytes - start
		}
		c.store.ReadRange(c.file, start, l)
	}
}

// bounds binary-searches the [lo, hi) index range holding v in a sorted
// column.
func (c *Column) bounds(v uint64) (int, int) {
	lo := sort.Search(len(c.vals), func(i int) bool { return c.vals[i] >= v })
	hi := sort.Search(len(c.vals), func(i int) bool { return c.vals[i] > v })
	return lo, hi
}
