package rwlock

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the visible-readers table of the BRAVO reader
// fast path (Dice & Kogan, "BRAVO — Biased Locking for Reader-Writer
// Locks", USENIX ATC 2019, arXiv:1810.01553).  The table exists in two
// deployments:
//
//   - PRIVATE (the default): each Bravo wrapper owns a machine-sized
//     table, which buys the fewest claim collisions per lock but costs
//     O(GOMAXPROCS) cache lines PER LOCK INSTANCE — the right call for
//     a handful of hot locks, dead on arrival at 10^5-10^6 lock
//     instances (a sharded map's stripe grid).
//   - SHARED (WithSharedReaderTable): one ReaderTable arena is shared
//     by any number of locks, the BRAVO paper's original global-table
//     design.  Slots are tagged with the claiming lock's owner id, so
//     a revoking writer's drain waits only on its own lock's readers;
//     the per-lock cost drops to one integer id.
//
// Both deployments run the same code: a private table is simply an
// arena with a single owner.  Each slot is a one-word presence flag
// alone on its cache line (0 = free, otherwise the owner id of the
// lock whose reader is inside).  A publishing reader dirties only its
// own line, so readers scale with cores instead of serializing on the
// packed [writer-waiting, reader-count] word that every reader of the
// Bhatt & Jayanti locks must fetch&add.  Writers pay for that reader
// scalability with a full-arena scan during bias revocation — the
// BRAVO trade-off, and in the shared deployment the scan cost is paid
// to the PROCESS-wide arena size, not per lock (the reason the default
// arena is kept modest; see DefaultReaderTable).
//
// Placement follows the BRAVO paper's hash of (thread, lock) only in
// its thread half.  Go has no thread id, so the scheduler's P index
// stands in for it: the table is cut into one region per P, and a
// reader claims the first free slot of its own P's region.  Starting
// at the region's first slot, rather than at a lock-hashed point
// inside it, keeps one P's claims on that one slot (the next one or
// two only while a read is already held on the P), whose line stays
// in that core's cache, so the claim CAS and the release store are
// local on the common path.  The P index is a placement hint, never a
// correctness input: the claim CAS is the commitment, slots carry the
// owner id, and a revocation scans every region.

// slotProbes is how many adjacent table entries a reader tries to
// claim before giving up and taking the slow path.  A small bound
// keeps the fast path O(1).  The probes stay inside the calling P's
// region (at least four slots), so they fail only when three fast-path
// reads are already held from one P: nested reads, or readers
// descheduled inside their critical sections.
const slotProbes = 3

// ReaderTable is a fixed-size power-of-two arena of reader-presence
// slots, shareable between any number of Bravo/Epoch/Slim locks via
// WithSharedReaderTable.  Each slot is a waitCell: the revoking
// writer's drain is a wait on the slot, and a fast-path reader's
// release is the matching wake, so drains follow the table's
// WaitStrategy like every other wait in the package.
//
// A table is safe for concurrent use by any number of locks and
// goroutines.  Lock constructors draw a unique owner id from the
// table, and every claim is tagged with it, so one lock's revocation
// never waits on another lock's readers — at worst it scans past
// their slots.
type ReaderTable struct {
	mask uint64
	// regionShift is log2 of the slots per P region: P pid claims from
	// slot pid<<regionShift onward (see tryClaim).
	regionShift uint64
	slots       []waitCell
	_           [24]byte
	// nextID hands out per-lock owner ids (contended only at lock
	// construction; padded off the read-only header above so a
	// construction burst does not invalidate the fast path's mask and
	// slice loads).
	nextID atomic.Int64
	_      [56]byte
}

// NewReaderTable returns an arena with at least min slots (rounded up
// to a power of two, floor 8), for sharing among locks constructed
// with WithSharedReaderTable.  The only option honored is
// WithWaitStrategy, which selects how revoking writers wait on the
// arena's slots.  Sizing guidance: the arena bounds the number of
// concurrent FAST-PATH readers process-wide (a reader that cannot
// claim a slot in a bounded number of probes takes its lock's slow
// path, which is correct but slower), while every revocation scans
// the whole arena — so size to the expected concurrent reader count,
// not to the lock count.  A few slots per P is plenty.
func NewReaderTable(min int, opts ...Option) *ReaderTable {
	o := applyOptions(opts)
	return newReaderTable(min, o.strategy)
}

// newReaderTable sizes the table to at least min entries and at least
// four slots per P, rounded up to a power of two so claim probes can
// wrap with a mask instead of a modulo.  The table is split into one
// region per P (the P count rounded up to a power of two), so every
// region is a power of two of at least four slots — more than
// slotProbes, so a claim's probes never leave its region.
func newReaderTable(min int, s WaitStrategy) *ReaderTable {
	procs := runtime.GOMAXPROCS(0)
	n := 4 * procs
	if n < min {
		n = min
	}
	if n < 8 {
		n = 8
	}
	n = 1 << bits.Len(uint(n-1))
	regions := 1 << bits.Len(uint(procs-1))
	t := &ReaderTable{
		mask:        uint64(n - 1),
		regionShift: uint64(bits.TrailingZeros(uint(n / regions))),
		slots:       make([]waitCell, n),
	}
	for i := range t.slots {
		t.slots[i].setStrategy(s)
	}
	return t
}

// defaultReaderTable backs DefaultReaderTable: one process-wide arena,
// sized up from the private default (more locks share it) but capped —
// every revocation scans the whole arena, so "bigger" is not free.
var defaultReaderTable = sync.OnceValue(func() *ReaderTable {
	n := 32 * runtime.GOMAXPROCS(0)
	if n < 64 {
		n = 64
	}
	if n > 4096 {
		n = 4096
	}
	return newReaderTable(n, SpinYield)
})

// DefaultReaderTable returns the package's process-wide shared arena,
// created on first use: the table WithSharedReaderTable callers use
// unless they construct their own, and the one the Slim locks default
// to.  Sized to 32 slots per P (floor 64, cap 4096 — the BRAVO
// paper's global table size), with SpinYield waits.
func DefaultReaderTable() *ReaderTable { return defaultReaderTable() }

// Slots returns the arena's slot count (a power of two) — the bound
// on concurrent fast-path readers across every lock sharing the
// table, and the length of every revocation scan.
func (t *ReaderTable) Slots() int { return len(t.slots) }

// assignID draws a fresh owner id for a lock built over this table.
// Ids are nonzero (0 is the free-slot value) and their low 24 bits are
// nonzero too, so the Slim locks' truncated ids stay valid (slim.go).
func (t *ReaderTable) assignID() int64 {
	for {
		id := t.nextID.Add(1)
		if id&slimIDMask != 0 {
			return id
		}
	}
}

// tryClaim publishes a reader of the lock that owns id into a free
// slot and returns its index.  It probes the calling P's own region
// from the region's first slot (see the file comment): the P index
// stands in for the thread half of the BRAVO paper's (thread, lock)
// hash, and the one goroutine running on a P almost always finds
// that first slot free, so its claim CAS and release store hit a line
// already in its own core's cache.  A random or lock-hashed start
// would spread one P's claims over many lines, each likely dirtied
// by another core since its last use.  The pin is dropped as soon as
// the index is read, because the index is only a placement hint,
// never a correctness input: a goroutine migrated after the read, or
// a P index past the region count (GOMAXPROCS raised after
// construction, wrapped through t.mask onto another P's region), only
// shares lines.  The CAS is the commitment, and the owner-id tag,
// drainFor and idleFor do not depend on where a claim lands.  (The
// claim CAS needs no wake: setting a slot busy satisfies nobody's
// wait.)
func (t *ReaderTable) tryClaim(id int64) (int64, bool) {
	pid := uint64(procPin())
	procUnpin()
	base := pid << t.regionShift
	for i := uint64(0); i < slotProbes; i++ {
		idx := (base + i) & t.mask
		s := &t.slots[idx]
		if s.load() == 0 && s.cas(0, id) {
			return int64(idx), true
		}
	}
	return 0, false
}

// release frees a slot claimed by tryClaim, waking a writer whose
// drain parked on it.  When no drain is in progress (the common case)
// the wake probe is one load of the slot's cold line.
func (t *ReaderTable) release(idx int64) { t.slots[idx].storeWake(0) }

// idleFor is the non-blocking face of drainFor: one scan, no waits,
// reporting whether no slot was claimed by id's lock at the instant
// it was read.  A TryLock-path revocation uses it to abort (and
// restore the bias) instead of waiting for published readers to
// leave.
func (t *ReaderTable) idleFor(id int64) bool {
	for i := range t.slots {
		if t.slots[i].load() == id {
			return false
		}
	}
	return true
}

// drainFor waits until no slot holds id and returns how many it found
// occupied — the revocation-cost signal that sizes Bravo's re-arm
// throttle.  Only a revoking writer of the owning lock calls drainFor,
// strictly after closing its fast path (clearing the bias flag or
// advancing the epoch): readers that claimed a slot before the close
// will be waited for, and readers that claim one afterwards observe
// the closed fast path, back out, and head for the slow path, so each
// owned slot quiesces and the scan terminates.  Other locks' slots
// are skipped without waiting — on a shared arena a drain costs one
// scan plus only its OWN readers' residual passages.
//
// (A skipped-then-reclaimed slot is benign: a reader of this lock
// that claims a slot after the scan passed it rechecks the closed
// fast path and backs out before entering, the same Dekker argument
// the per-slot wait relies on.)
func (t *ReaderTable) drainFor(id int64) (busy int) {
	notID := func(v int64) bool { return v != id }
	for i := range t.slots {
		s := &t.slots[i]
		if s.load() != id {
			continue
		}
		busy++
		s.waitUntil(notID)
	}
	return busy
}
