package rdf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Dict is the dictionary contract every layer above rdf depends on:
// interning RDF terms to dense identifiers starting at 1 and mapping
// identifiers back to terms. Dictionary is its one implementation; the
// interface exists so a test can wrap it (a racing interner, say) behind
// any layer that holds one.
//
// Implementations must be safe for concurrent use, issue identifiers
// densely (after N Intern calls of distinct terms, exactly 1..N are
// assigned), and make Term(id) valid as soon as the Intern call that
// issued id has returned.
type Dict interface {
	// Intern returns the identifier for t, assigning a fresh one on first
	// use.
	Intern(t Term) ID
	// InternIRI is shorthand for Intern(NewIRI(v)).
	InternIRI(v string) ID
	// InternLiteral is shorthand for Intern(NewLiteral(v)).
	InternLiteral(v string) ID
	// Lookup returns the identifier for t without interning; the second
	// result reports presence.
	Lookup(t Term) (ID, bool)
	// LookupIRI returns the identifier of the IRI v, or NoID if absent.
	LookupIRI(v string) ID
	// LookupLiteral returns the identifier of the literal v, or NoID.
	LookupLiteral(v string) ID
	// Term returns the term for id; it panics on identifiers the
	// dictionary never issued.
	Term(id ID) Term
	// Len returns the number of distinct terms interned so far.
	Len() int
	// Bytes returns the total size of all interned lexical forms.
	Bytes() int64
	// IDs returns all identifiers whose term satisfies pred, ascending.
	IDs(pred func(Term) bool) []ID
}

var _ Dict = (*Dictionary)(nil)

// dictShards is the number of independently locked intern maps, a power of
// two: enough to keep the per-shard mutexes essentially uncontended at the
// worker counts a single host can field, at a fixed cost of 64 small maps.
const dictShards = 64

// Terms are stored in fixed-size append-only blocks so the id→term side
// needs no lock: blocks never move once allocated, only the block *list*
// grows (behind growMu, republished through an atomic pointer).
const (
	dictBlockShift = 12 // 4096 terms per block
	dictBlockSize  = 1 << dictBlockShift
	dictBlockMask  = dictBlockSize - 1
)

type dictBlock [dictBlockSize]Term

// Dictionary interns RDF terms to dense identifiers starting at 1 and maps
// identifiers back to terms. It is the "strings in dictionary" structure of
// the paper's Table 1: every distinct lexical form occupies one slot
// regardless of how many triples reference it.
//
// The intern map is hash-partitioned over independently locked shards,
// while identifiers come from one atomic counter, so the identifier space
// stays dense (1..Len with no gaps) — the invariant every loaded scheme and
// the plan compiler rely on. Interning two distinct terms contends only
// when they hash to the same shard; reverse lookups (Term) take no lock at
// all. Identifiers follow the order in which Intern calls complete: one
// goroutine interning in input order gets first-occurrence order (what
// rdf.ReadNTriples and the ingest pipeline's deterministic mode rely on),
// while concurrent interning assigns them nondeterministically.
//
// A Dictionary is safe for concurrent use. Term(id) is valid as soon as the
// Intern call that issued id has returned.
type Dictionary struct {
	shards [dictShards]dictShard

	next   atomic.Uint64 // last issued identifier
	nbytes atomic.Int64

	growMu sync.Mutex
	blocks atomic.Pointer[[]*dictBlock]
}

type dictShard struct {
	mu    sync.RWMutex
	byKey map[string]ID
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	d := &Dictionary{}
	for i := range d.shards {
		d.shards[i].byKey = make(map[string]ID)
	}
	return d
}

// dictKey builds the interning key. Kind participates in the key so an IRI
// and a literal with identical lexical forms intern separately, as required
// by RDF semantics.
func dictKey(t Term) string {
	// One byte of kind prefix keeps keys unambiguous without re-rendering
	// full N-Triples syntax.
	return string([]byte{byte(t.Kind)}) + t.Value
}

// shardOf hashes an intern key to its shard (FNV-1a).
func (d *Dictionary) shardOf(k string) *dictShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return &d.shards[h%dictShards]
}

// Intern returns the identifier for t, assigning a fresh one on first use.
// Only the owning shard locks; the fresh identifier comes from the global
// counter, so density holds across shards.
func (d *Dictionary) Intern(t Term) ID {
	k := dictKey(t)
	sh := d.shardOf(k)
	sh.mu.RLock()
	id, ok := sh.byKey[k]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok = sh.byKey[k]; ok {
		return id
	}
	id = ID(d.next.Add(1))
	d.setTerm(id, t)
	sh.byKey[k] = id
	d.nbytes.Add(int64(len(t.Value)) + 1)
	return id
}

// setTerm stores the term of a freshly issued identifier. Distinct ids
// write distinct slots, so concurrent setTerm calls from different shards
// never conflict; only growing the block list synchronizes.
func (d *Dictionary) setTerm(id ID, t Term) {
	idx := uint64(id - 1)
	b := idx >> dictBlockShift
	blocks := d.blocks.Load()
	if blocks == nil || uint64(len(*blocks)) <= b {
		d.grow(b)
		blocks = d.blocks.Load()
	}
	(*blocks)[b][idx&dictBlockMask] = t
}

// grow extends the block list to cover block index b. Existing blocks are
// shared between the old and new list, so writers holding slots in them
// are unaffected.
func (d *Dictionary) grow(b uint64) {
	d.growMu.Lock()
	defer d.growMu.Unlock()
	old := d.blocks.Load()
	var cur []*dictBlock
	if old != nil {
		cur = *old
	}
	if uint64(len(cur)) > b {
		return // another shard grew past b first
	}
	next := make([]*dictBlock, len(cur), b+1)
	copy(next, cur)
	for uint64(len(next)) <= b {
		next = append(next, new(dictBlock))
	}
	d.blocks.Store(&next)
}

// InternIRI is shorthand for Intern(NewIRI(v)).
func (d *Dictionary) InternIRI(v string) ID { return d.Intern(NewIRI(v)) }

// InternLiteral is shorthand for Intern(NewLiteral(v)).
func (d *Dictionary) InternLiteral(v string) ID { return d.Intern(NewLiteral(v)) }

// Lookup returns the identifier for t without interning.
func (d *Dictionary) Lookup(t Term) (ID, bool) {
	k := dictKey(t)
	sh := d.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	id, ok := sh.byKey[k]
	return id, ok
}

// LookupIRI returns the identifier of the IRI v, or NoID if absent.
func (d *Dictionary) LookupIRI(v string) ID {
	id, ok := d.Lookup(NewIRI(v))
	if !ok {
		return NoID
	}
	return id
}

// LookupLiteral returns the identifier of the literal v, or NoID if absent.
func (d *Dictionary) LookupLiteral(v string) ID {
	id, ok := d.Lookup(NewLiteral(v))
	if !ok {
		return NoID
	}
	return id
}

// Term returns the term for id without locking: blocks are immutable once
// published, and the slot of an issued id was written before its Intern
// returned — so any id obtained from Intern, Lookup, Len or IDs reads a
// fully published slot. (Ids guessed out of thin air while interns are in
// flight are outside the contract; the quiesced counters below exist so
// Len-derived scans never do that.)
func (d *Dictionary) Term(id ID) Term {
	n := d.next.Load()
	if id == NoID || uint64(id) > n {
		panic(fmt.Sprintf("rdf: dictionary lookup of invalid id %d (size %d)", id, n))
	}
	idx := uint64(id - 1)
	blocks := d.blocks.Load()
	return (*blocks)[idx>>dictBlockShift][idx&dictBlockMask]
}

// quiesce runs f while holding every shard's read lock. An in-flight
// Intern publishes its identifier, term slot and byte count entirely
// under its shard's write lock, so under all read locks the counters are
// a consistent snapshot: every id at or below next.Load() is fully
// published, none are torn.
func (d *Dictionary) quiesce(f func()) {
	for i := range d.shards {
		d.shards[i].mu.RLock()
	}
	f()
	for i := range d.shards {
		d.shards[i].mu.RUnlock()
	}
}

// Len returns the number of distinct terms interned so far. The count is
// a quiesced snapshot: every identifier it covers has completed
// interning, so Term(id) is valid for all id <= Len().
func (d *Dictionary) Len() int {
	var n uint64
	d.quiesce(func() { n = d.next.Load() })
	return int(n)
}

// Bytes returns the total size in bytes of all interned lexical forms,
// as a quiesced snapshot consistent with Len.
func (d *Dictionary) Bytes() int64 {
	var b int64
	d.quiesce(func() { b = d.nbytes.Load() })
	return b
}

// IDs returns all identifiers whose term satisfies pred, in ascending
// order — the identifier space is dense, so this is one scan of the term
// blocks up to a quiesced Len (slots below it are immutable, so the scan
// itself needs no lock).
func (d *Dictionary) IDs(pred func(Term) bool) []ID {
	n := d.Len()
	var out []ID
	for i := 1; i <= n; i++ {
		if pred(d.Term(ID(i))) {
			out = append(out, ID(i))
		}
	}
	return out
}
