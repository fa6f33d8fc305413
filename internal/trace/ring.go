package trace

import "sync"

// Ring is a fixed-capacity store of the most recent entries: Add
// overwrites the oldest once full, Entries returns a copy newest first. It
// backs the tracer's finished traces and the serving layer's slow-query
// log and version history. A mutex suffices: each user adds only what is
// already off its fast path (kept traces, slow queries, installs).
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int // slot the next entry lands in
	n    int // entries recorded so far, capped at len(buf)
}

// NewRing returns an empty ring holding up to capacity entries, which
// must be positive.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity)}
}

// Add records v, overwriting the oldest entry when the ring is full.
func (r *Ring[T]) Add(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len returns how many entries the ring holds.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Entries returns a copy of the recorded entries, newest first.
func (r *Ring[T]) Entries() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}
