package simio

import (
	"container/list"
	"fmt"
	"sync"
	"time"
)

// DefaultPageSize is the granularity of buffering and physical transfer.
const DefaultPageSize = 8192

// FileID names one simulated on-disk file (a table, an index, or a column).
type FileID uint32

// pageKey identifies one buffered page.
type pageKey struct {
	file FileID
	page int64
}

// fileMeta tracks the extent of one simulated file.
type fileMeta struct {
	name string
	size int64
}

// Stats aggregates buffer-pool and device counters for one run.
type Stats struct {
	// Requests counts ReadRange calls (I/O system calls in the model).
	Requests int64
	// PageHits and PageMisses count buffer-pool outcomes per page.
	PageHits   int64
	PageMisses int64
	// BytesRead is the physical volume moved from disk.
	BytesRead int64
	// Seeks counts non-contiguous physical reads.
	Seeks int64
	// Evictions counts pages discarded by the LRU policy.
	Evictions int64
}

// Store is the simulated storage device plus its buffer pool. It is the
// single point through which engines perform I/O, so swapping a Machine
// profile or resizing the pool changes the timing of every engine uniformly.
//
// A mutex serializes the accounting paths (ChargeCPU, ReadRange and the
// catalog methods), so the serving layer's concurrent executions can share
// one store. Charges model the paper's single-threaded systems — costs are
// summed regardless of host parallelism, which only shortens host time.
// Whether CPU and I/O charges overlap in *reported* real time is the
// clock's composition mode (Clock.SetOverlapped), a per-measurement choice.
type Store struct {
	mu       sync.Mutex
	machine  Machine
	clock    *Clock
	trace    *Trace
	pageSize int64

	files  map[FileID]*fileMeta
	nextID FileID

	// Buffer pool: LRU list of pageKey with a reverse index.
	capacity int64 // bytes
	used     int64
	lru      *list.List
	index    map[pageKey]*list.Element

	// lastPhys detects physically sequential access for seek accounting,
	// tracked per file: a read is seek-free iff it continues directly after
	// the previous physical read of the *same* file. This models per-file
	// OS read-ahead streams and, crucially, makes seek accounting
	// independent of how scans of different files interleave — the charge
	// total for a set of scans is the same in any order.
	lastPhys map[FileID]int64

	stats Stats
}

// Config carries Store construction parameters.
type Config struct {
	// Machine selects the simulated hardware; defaults to MachineB, the
	// machine on which the paper runs its Section 4 experiments.
	Machine Machine
	// PoolBytes is the buffer-pool capacity; defaults to 1 GiB, enough
	// that benchmark data fits in memory on hot runs, as in the paper.
	PoolBytes int64
	// PageSize defaults to DefaultPageSize.
	PageSize int64
}

// NewStore builds a store with its own clock and trace.
func NewStore(cfg Config) *Store {
	if cfg.Machine.Name == "" {
		cfg.Machine = MachineB()
	}
	if cfg.PoolBytes == 0 {
		cfg.PoolBytes = 1 << 30
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = DefaultPageSize
	}
	return &Store{
		machine:  cfg.Machine,
		clock:    &Clock{cpuScale: cfg.Machine.CPUScale},
		trace:    NewTrace(),
		pageSize: cfg.PageSize,
		files:    make(map[FileID]*fileMeta),
		capacity: cfg.PoolBytes,
		lru:      list.New(),
		index:    make(map[pageKey]*list.Element),
		lastPhys: make(map[FileID]int64),
	}
}

// Clock exposes the store's simulated clock.
func (s *Store) Clock() *Clock { return s.clock }

// Trace exposes the store's I/O trace.
func (s *Store) Trace() *Trace { return s.trace }

// Machine returns the active hardware profile.
func (s *Store) Machine() Machine { return s.machine }

// PageSize returns the page size in bytes.
func (s *Store) PageSize() int64 { return s.pageSize }

// Charges returns the clock's accumulated simulated CPU and I/O charges
// in nanoseconds plus the physical bytes read so far, as one consistent
// reading under the accounting lock. The clock's fields are not
// independently synchronized — every charging path holds s.mu — so this
// is the only safe way to sample charges while a plan is running, and it
// is what the profiling executor diffs around each operator.
func (s *Store) Charges() (cpuNs, ioNs, bytesRead int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.clock.User()), int64(s.clock.IO()), s.stats.BytesRead
}

// Stats returns a copy of the accumulated counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the counters (not the pool contents).
func (s *Store) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// CreateFile registers a new zero-length file and returns its id.
func (s *Store) CreateFile(name string) FileID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	s.files[id] = &fileMeta{name: name}
	return id
}

// Extend grows the file by n bytes, as a bulk loader does. Writing is not
// charged to the clock: the benchmark conventions put loading outside the
// measured window ("database loading, clustering and index construction are
// all kept outside the scope of the benchmark", Section 2.3).
func (s *Store) Extend(f FileID, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm, ok := s.files[f]
	if !ok {
		panic(fmt.Sprintf("simio: Extend on unknown file %d", f))
	}
	if n < 0 {
		panic("simio: negative Extend")
	}
	fm.size += n
}

// FileSize returns the current size of f in bytes.
func (s *Store) FileSize(f FileID) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm, ok := s.files[f]
	if !ok {
		panic(fmt.Sprintf("simio: FileSize on unknown file %d", f))
	}
	return fm.size
}

// FileName returns the registered name of f.
func (s *Store) FileName(f FileID) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm, ok := s.files[f]
	if !ok {
		panic(fmt.Sprintf("simio: FileName on unknown file %d", f))
	}
	return fm.name
}

// TotalBytes returns the combined size of all files — the database footprint.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, fm := range s.files {
		n += fm.size
	}
	return n
}

// DropCaches empties the buffer pool, producing the paper's "cold" state:
// "no (benchmark-relevant) data is preloaded into the system's main memory".
func (s *Store) DropCaches() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lru.Init()
	s.index = make(map[pageKey]*list.Element)
	s.used = 0
	s.lastPhys = make(map[FileID]int64)
}

// ReadRange simulates reading [off, off+length) of file f through the buffer
// pool. Resident pages cost nothing; missing pages are coalesced into
// physically contiguous transfers that charge seek, per-request overhead and
// transfer time to the clock, and are then cached.
func (s *Store) ReadRange(f FileID, off, length int64) {
	if length <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fm, ok := s.files[f]
	if !ok {
		panic(fmt.Sprintf("simio: ReadRange on unknown file %d", f))
	}
	if off < 0 || off+length > fm.size {
		panic(fmt.Sprintf("simio: ReadRange [%d,%d) outside file %q of size %d",
			off, off+length, fm.name, fm.size))
	}
	s.stats.Requests++

	first := off / s.pageSize
	last := (off + length - 1) / s.pageSize

	// Walk pages, batching consecutive misses into single transfers.
	runStart := int64(-1)
	for p := first; p <= last; p++ {
		if s.poolHit(f, p) {
			if runStart >= 0 {
				s.physicalRead(f, runStart, p-1)
				runStart = -1
			}
			s.stats.PageHits++
			continue
		}
		s.stats.PageMisses++
		if runStart < 0 {
			runStart = p
		}
	}
	if runStart >= 0 {
		s.physicalRead(f, runStart, last)
	}
}

// ReadAll reads the whole of file f.
func (s *Store) ReadAll(f FileID) { s.ReadRange(f, 0, s.FileSize(f)) }

// poolHit reports whether the page is resident, bumping its LRU position.
func (s *Store) poolHit(f FileID, page int64) bool {
	el, ok := s.index[pageKey{f, page}]
	if !ok {
		return false
	}
	s.lru.MoveToFront(el)
	return true
}

// physicalRead transfers pages [first,last] of f from the device, charging
// the clock and recording the trace, then installs the pages into the pool.
func (s *Store) physicalRead(f FileID, first, last int64) {
	n := (last - first + 1) * s.pageSize
	// The fixed request cost applies only to physical reads; buffered page
	// accesses never reach the device.
	s.clock.ChargeIO(s.machine.RequestOverhead)
	prev, seen := s.lastPhys[f]
	if !seen || prev != first-1 {
		s.clock.ChargeIO(s.machine.SeekLatency)
		s.stats.Seeks++
	}
	s.clock.ChargeIO(s.machine.TransferTime(n))
	s.stats.BytesRead += n
	s.trace.Record(s.clock.Real(), n)
	s.lastPhys[f] = last

	for p := first; p <= last; p++ {
		s.install(pageKey{f, p})
	}
}

// install caches one page, evicting LRU pages as needed.
func (s *Store) install(k pageKey) {
	if _, ok := s.index[k]; ok {
		return
	}
	for s.used+s.pageSize > s.capacity && s.lru.Len() > 0 {
		back := s.lru.Back()
		delete(s.index, back.Value.(pageKey))
		s.lru.Remove(back)
		s.used -= s.pageSize
		s.stats.Evictions++
	}
	if s.used+s.pageSize > s.capacity {
		return // pool smaller than one page: uncacheable
	}
	s.index[k] = s.lru.PushFront(k)
	s.used += s.pageSize
}

// ChargeCPU forwards a CPU cost to the clock. Engines express work in
// baseline nanoseconds; the clock scales the total by the machine's CPU
// speed when it is read, which makes the same plan faster or slower across
// simulated hardware.
func (s *Store) ChargeCPU(baselineNs int64) {
	if baselineNs <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock.ChargeCPU(time.Duration(baselineNs))
}
