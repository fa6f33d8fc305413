package btree

import "fmt"

// Cursor is the tree's one walk: it yields the entries under a key prefix in
// key order, in caller-bounded steps, so a consumer that stops early never
// pays for the leaves it does not visit. It descends once — charged on the
// first Next call — and then reads the qualifying leaves sequentially; leaf
// read-ahead I/O is charged exactly when the scan enters a leaf at a
// read-ahead boundary. A cursor holds no resources — abandoning one is the
// early-termination protocol.
type Cursor struct {
	t       *Tree
	prefix  Key
	plen    int
	start   int
	limit   int // exclusive bound on qualifying leaves
	leaf    int
	idx     int // next key within leaf
	started bool
	done    bool
}

// NewCursor positions a cursor over all entries whose first plen fields
// equal prefix (plen == 0 scans the whole tree). No charges happen until
// the first Next.
func (t *Tree) NewCursor(prefix Key, plen int) *Cursor {
	if plen < 0 || plen > t.width {
		panic(fmt.Sprintf("btree %q: prefix length %d out of range", t.name, plen))
	}
	return &Cursor{t: t, prefix: prefix, plen: plen}
}

// open charges the root-to-leaf descent and computes the qualifying leaf
// range. Read-ahead is bounded by the end of that range (the first leaf
// whose separator exceeds the prefix), so selective probes read one leaf,
// not a full read-ahead window.
func (c *Cursor) open() {
	c.started = true
	t := c.t
	if len(t.leaves) == 0 {
		c.done = true
		return
	}
	if c.plen == 0 {
		c.start, c.limit = 0, len(t.leaves)
		t.chargeDescent(0)
	} else {
		c.start = t.findLeaf(c.prefix, c.plen)
		t.chargeDescent(c.start)
		limit := c.start + 1
		for limit < len(t.leaves) && Compare(t.sep[limit], c.prefix, c.plen) <= 0 {
			limit++
		}
		c.limit = limit
	}
	c.leaf = c.start
}

// Next returns the next run of up to max matching entries — a view of one
// leaf, never a copy, so a run also ends where its leaf does — or nil once
// the scan is exhausted. The next leaf is entered, and its read-ahead
// charged, only by the call after the one that finished this leaf.
func (c *Cursor) Next(max int) []Key {
	if !c.started {
		c.open()
	}
	for !c.done && c.leaf < c.limit {
		if c.idx == 0 && (c.leaf-c.start)%readAheadLeaves == 0 {
			c.t.readLeaf(c.leaf, c.limit)
		}
		keys := c.t.leaves[c.leaf]
		lo := c.idx
		for c.plen > 0 && lo < len(keys) && Compare(keys[lo], c.prefix, c.plen) < 0 {
			lo++
		}
		hi := lo
		for hi < len(keys) && hi-lo < max && (c.plen == 0 || Compare(keys[hi], c.prefix, c.plen) == 0) {
			hi++
		}
		switch {
		case hi-lo == max:
			c.idx = hi
		case hi < len(keys):
			c.done = true // a key past the prefix ends the scan
		default:
			c.leaf, c.idx = c.leaf+1, 0
		}
		if hi > lo {
			return keys[lo:hi]
		}
	}
	c.done = true
	return nil
}
