package serve

import (
	"fmt"
	"sync"
	"testing"
)

func TestSlowLogRingBounds(t *testing.T) {
	l := newSlowLog(4)

	if got := l.Entries(); len(got) != 0 {
		t.Fatalf("fresh log has %d entries, want 0", len(got))
	}

	// Under capacity: everything retained, newest first.
	for i := 0; i < 3; i++ {
		l.Add(SlowEntry{Query: fmt.Sprintf("q%d", i)})
	}
	got := l.Entries()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("q%d", 2-i); e.Query != want {
			t.Errorf("Entries()[%d].Query = %q, want %q", i, e.Query, want)
		}
	}

	// Past capacity: the ring holds exactly the last 4, newest first.
	for i := 3; i < 10; i++ {
		l.Add(SlowEntry{Query: fmt.Sprintf("q%d", i)})
	}
	got = l.Entries()
	if len(got) != 4 {
		t.Fatalf("after overflow len = %d, want 4 (the capacity)", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("q%d", 9-i); e.Query != want {
			t.Errorf("after overflow Entries()[%d].Query = %q, want %q", i, e.Query, want)
		}
	}
}

func TestSlowLogDefaultCapacity(t *testing.T) {
	for _, cap := range []int{0, -5} {
		l := newSlowLog(cap)
		for range 2 * DefaultSlowLogSize {
			l.Add(SlowEntry{})
		}
		if l.Len() != DefaultSlowLogSize {
			t.Errorf("newSlowLog(%d) capacity = %d, want DefaultSlowLogSize (%d)",
				cap, l.Len(), DefaultSlowLogSize)
		}
	}
}

// TestSlowLogConcurrent hammers add and entries from many goroutines; run
// under -race it checks the ring's locking, and afterwards the ring must
// hold exactly its capacity of intact (non-torn) entries.
func TestSlowLogConcurrent(t *testing.T) {
	const (
		writers    = 8
		perWriter  = 200
		readers    = 4
		capEntries = 16
	)
	l := newSlowLog(capEntries)

	var writersWG, readersWG sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, e := range l.Entries() {
					// Query and System are written together; a torn entry
					// would disagree.
					if e.Query != e.System {
						t.Errorf("torn entry: Query %q, System %q", e.Query, e.System)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				q := fmt.Sprintf("w%d-%d", w, i)
				l.Add(SlowEntry{Query: q, System: q, Rows: w*perWriter + i})
			}
		}(w)
	}
	writersWG.Wait()
	close(done)
	readersWG.Wait()

	got := l.Entries()
	if len(got) != capEntries {
		t.Fatalf("after %d writes, Entries() returned %d, want the capacity %d",
			writers*perWriter, len(got), capEntries)
	}
	for i, e := range got {
		if e.Query != e.System {
			t.Errorf("final Entries()[%d] torn: Query %q, System %q", i, e.Query, e.System)
		}
	}
}
