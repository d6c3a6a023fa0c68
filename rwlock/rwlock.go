// Package rwlock provides reader-writer locks with constant RMR
// (remote-memory-reference) complexity on cache-coherent machines,
// implementing the algorithms of Bhatt & Jayanti, "Constant RMR
// Solutions to Reader Writer Synchronization" (Dartmouth TR2010-662,
// PODC 2010), plus the baselines they are evaluated against.
//
// Three priority disciplines are offered, exactly as in the paper:
//
//   - NewMWSF (Theorem 3): no priority; starvation freedom for both
//     classes, FCFS among writers, FIFE among readers.
//   - NewMWRP (Theorem 4): reader priority (RP1/RP2); writers may
//     starve under a continuous reader load.
//   - NewMWWP (Theorem 5): writer priority (WP1/WP2); readers may
//     starve under a continuous writer load.
//
// The single-writer cores (NewSWWP, NewSWRP — the paper's Figures 1
// and 2) are exported as well: when the application has one designated
// writer they avoid the multi-writer serialization layer entirely.
//
// # Writer arbitration
//
// The multi-writer locks serialize writers through an internal
// mutual-exclusion lock M, which the paper's proofs only require to
// be FCFS, starvation-free, and O(1) RMR per passage.  By default
// that layer is an unbounded MCS queue lock (mcs.go): any number of
// goroutines may attempt to write concurrently, so the constructors
// take no sizing parameter.  WithBoundedWriters(n) selects the
// paper's fixed-capacity Anderson array lock instead, whose admission
// gate caps concurrent write attempts at n — an explicit
// admission-control choice, not a correctness requirement (see
// AndersonLock for the gate's RMR accounting).  WithCombiningWriters
// layers a flat-combining batcher over either: writes submitted
// through the closure path (Write, Guard.Write) are executed in
// batches by one writer per acquisition of M, trading strict FCFS
// order (batches run in publication order) for one handoff per batch
// (see combiner.go).
//
// # Reader fast paths
//
// Two optional wrappers layer multicore reader scalability over any
// of the multi-writer locks; both trade strict arrival-order fairness
// while their fast path is open, and both preserve mutual exclusion
// and the wrapped lock's progress guarantees:
//
//   - NewBravo (bravo.go) keeps a distributed visible-readers table:
//     while the lock is read-biased a reader publishes itself with
//     one CAS in a private cache line and skips the inner lock; a
//     writer revokes the bias and drains the table.  One shared-word
//     RMW per read passage.
//   - NewEpoch (epoch.go) removes even that: readers stamp a padded
//     per-slot epoch word with a plain store and recheck the global
//     epoch — zero shared-word RMWs per read passage — while writers
//     advance the epoch and wait out a grace period.  The grace
//     machinery additionally buys deferred version reclamation
//     (Retire/VersionRetirer): old versions of the protected data are
//     freed only after a grace period in which no reader can still
//     observe them, swept at the writer arbitration layer's batch
//     boundary — the update-age vs retained-memory trade measured by
//     the age-frontier scenario.  WithEpochReclaimEvery sets the
//     sweep cadence.
//
// Pick Bravo when writers are frequent enough that grace waits would
// dominate (its revocation throttle adapts the bias to the write
// rate); pick Epoch at very high read ratios or when deferred
// reclamation is wanted (its fast path reopens unconditionally at
// every batch boundary, so there is no revocation dead zone).
//
// # Serving tier: shared tables and slim locks
//
// Both fast paths were designed for a handful of heavily contended
// locks; a serving tier inverts that — 10^5 to 10^6 lightly contended
// lock instances striping a key space (see the rwmap package).  At
// that scale the per-lock footprint dominates: a private Bravo table
// or Epoch slot array costs kilobytes per instance.  Two mechanisms
// shrink it:
//
//   - WithSharedReaderTable(tbl) makes a Bravo or Epoch wrapper
//     publish readers in a shared ReaderTable arena instead of a
//     private one, following the global-table design of BRAVO
//     (arXiv:1810.01553).  Slots carry owner identities, so a writer
//     drains only its own lock's readers; collisions between locks
//     cost a spurious slow-path read, never correctness.  Per-lock
//     cost drops to the wrapper header plus one table shared by the
//     whole grid.
//   - NewSlimBravo and NewSlimEpoch are 16-byte packed variants of
//     the same two protocols: one atomic word of state plus a
//     reference into a process-wide table registry.  They give up the
//     pluggable inner lock and the option set of the full wrappers to
//     hit the allocator's smallest size class — the build the
//     10^6-stripe grids use.
//
// The zipf-grid benchmark scenario measures the resulting trade:
// bytes per lock instance (private vs shared vs slim) against hot-key
// read throughput under Zipfian traffic.
//
// # Tokens
//
// Unlike sync.RWMutex, these algorithms require a few words of
// per-attempt state to flow from the acquire to the matching release
// (the paper's processes keep them in local variables across the
// critical section).  Acquire methods therefore return a small value
// token that must be passed to the matching release:
//
//	tok := l.RLock()
//	... read shared state ...
//	l.RUnlock(tok)
//
// Tokens are plain values (no allocation) and make the lock usable
// from any goroutine — there is no goroutine-local magic and no
// requirement that the releasing goroutine be the acquiring one.
//
// # Waiting
//
// The paper's processes busy-wait.  Every wait in this package goes
// through a wait cell — one padded atomic word with a wait side and a
// set+wake side — whose behavior is selected per lock with
// WithWaitStrategy:
//
//   - SpinYield (default): re-check the word — a bounded tight spin
//     first when the lock was built at GOMAXPROCS > 1, then one
//     runtime.Gosched per re-check.  This preserves the algorithms'
//     structure and cost model exactly: each re-check is one read of
//     one cached word that only the wake-up write invalidates, so
//     passages stay O(1) RMRs on cache-coherent machines.
//   - SpinThenPark: bounded local spinning, then park the goroutine
//     on the cell's semaphore; the signalling side's write doubles as
//     the wake.  Choose this when goroutines can outnumber
//     GOMAXPROCS — spinning waiters would burn the scheduler quanta
//     the lock holder needs — at the price of a slightly longer
//     wake-to-run latency when the machine is idle.
//
// Parking does not change the RMR accounting: the constant-RMR
// property is a bound on cache traffic per passage, and a parked
// waiter generates none at all — the pre-park spin performs the same
// O(1) re-reads the paper charges, the sleep is memory-silent, and
// the wake adds one semaphore post to the signaller's existing O(1)
// store.  What parking trades is latency, not traffic.
//
// # Deadline-aware acquisition
//
// Every lock additionally implements TryRWLock (non-blocking TryLock
// and TryRLock) and CtxRWLock (LockCtx and RLockCtx, which abort
// their wait when the context is cancelled), and every closure-path
// lock implements CtxFuncWriter (WriteCtx).  The paper's algorithms
// were not designed to abort — several of their steps are
// irreversible — so each path documents its commitment points:
//
//   - Readers abort cleanly everywhere.  A cancelled reader has at
//     most registered in a reader count; it retires through the
//     ordinary reader-exit protocol (a zero-length read passage), so
//     last-reader promotion handoffs stay exact.
//   - A writer's point of no return is the single-writer doorway
//     (the direction-bit toggle) and, below it, the arbitration
//     grant: an MCS waiter can abort while queued (its node is
//     adopted and recycled by the next releaser), an Anderson waiter
//     only before its ticket, and a combiner publisher only before
//     the publication CAS — a published closure always executes.
//   - TryLock probes availability (arbitration free AND no readers
//     registered) before committing through the doorway, so it is
//     conservative: it may report busy in schedules where a blocking
//     Lock would have been granted immediately.
//
// See the TryRWLock and CtxRWLock interface docs for the exact
// contracts, including how grant-vs-cancel races resolve and which
// ordering details of the paper (MWWP's early doorway, strict FCFS
// under combining) the abortable paths relax.
//
// # Observability
//
// Every constructor accepts WithStats(*LockStats), attaching a
// cache-padded block of atomic counters (acquire/contention tallies
// per mode, fast-path revocations, epoch reclamation, combiner
// batching, park/unpark traffic) plus sampled wait- and hold-time
// histograms.  A wrapper and its inner lock built from one option
// list share one block, so each passage is counted once at the layer
// that completed it.  Without the option the seam is a nil check on
// paths the hot passages already execute — the uninstrumented build
// measures identically to one compiled without the seam.  LockStats
// is read with Snapshot (coherent under concurrent traffic) and
// checked with CheckCoherence; the rwstats package exports snapshots
// over expvar, Prometheus text format, and JSON, and adds a stall
// watchdog.  The Slim locks and the classical baselines live outside
// the seam: they accept the option but count nothing (observe a Slim
// grid through rwmap.Map.Heatmap instead).
package rwlock

import "context"

// RWLock is the interface implemented by every lock in this package.
//
// The zero value of the implementations is NOT ready for use; always
// construct locks with their New functions (the paper's variables have
// nonzero initial values, e.g. Gate[0] = true).
type RWLock interface {
	// Lock acquires the lock in write (exclusive) mode.
	Lock() WToken
	// Unlock releases write mode; it must receive the token returned
	// by the matching Lock.
	Unlock(WToken)
	// RLock acquires the lock in read (shared) mode.
	RLock() RToken
	// RUnlock releases read mode; it must receive the token returned
	// by the matching RLock.
	RUnlock(RToken)
}

// TryRWLock is implemented by every lock in this package whose
// acquisitions have genuinely non-blocking variants.  TryLock and
// TryRLock never wait: they either take the lock — returning the
// token the matching Unlock/RUnlock needs — or report it busy, in a
// bounded number of steps with no allocation.
//
// "Busy" is evaluated against the lock's internal commitment points,
// which makes Try* slightly conservative rather than slightly
// blocking: a writer's TryLock probes that no writer holds or queues
// for the arbitration mutex AND that no reader is registered, and
// only then commits through the (irreversible) writer doorway.  A
// reader that registers between the probe and the commit waits out a
// bounded zero-length writer passage rather than blocking the caller
// indefinitely — see each lock's method doc.  On /bounded locks a
// full Anderson admission gate also counts as busy.
type TryRWLock interface {
	RWLock
	// TryLock attempts write mode without blocking; ok reports
	// whether the lock was taken.  On success the token must reach
	// Unlock.
	TryLock() (WToken, bool)
	// TryRLock attempts read mode without blocking; ok reports
	// whether the lock was taken.  On success the token must reach
	// RUnlock.
	TryRLock() (RToken, bool)
}

// CtxRWLock is implemented by every lock in this package whose
// acquisitions can be bounded by a context.  LockCtx/RLockCtx behave
// exactly like Lock/RLock until ctx is cancelled; then they abort the
// wait, undo any partial registration, and return ctx.Err().  The
// contract is exactly two-valued: a non-nil error means the caller
// does NOT hold the lock (and owes no release), a nil return means it
// does.  Cancellation races with the wake that would have granted the
// lock are resolved in the grant's favor — a LockCtx may return nil
// on an already-cancelled context when the handoff was in flight —
// so callers re-check their context after acquisition when that
// matters.
//
// Each discipline has a point of no return past which cancellation
// no longer wins: the MCS grant CAS and the Anderson ticket on the
// arbitration layer, the single-writer doorway on the core layer
// (once the direction bit D toggles, the writer is committed — the
// remaining waits are bounded by the readers already inside).
// Readers, by contrast, are abortable everywhere: an aborted reader
// retires through the ordinary reader-exit protocol (a zero-length
// read passage), so counts and promotion handoffs stay exact.
//
// On MWWP, LockCtx relaxes one ordering detail of the paper's Figure
// 4: the blocking Lock performs its doorway BEFORE queueing on the
// arbitration mutex, which lets a whole convoy of queued writers
// close the reader gates early; LockCtx must remain abortable while
// queued, so it performs the doorway AFTER the mutex grant.  Mutual
// exclusion, starvation-freedom, and writer priority while any
// writer is inside are unaffected; only the early cross-handoff gate
// closing is narrowed for ctx-path writers.
type CtxRWLock interface {
	RWLock
	// LockCtx acquires write mode, aborting with ctx.Err() if ctx is
	// cancelled while waiting.
	LockCtx(ctx context.Context) (WToken, error)
	// RLockCtx acquires read mode, aborting with ctx.Err() if ctx is
	// cancelled while waiting.
	RLockCtx(ctx context.Context) (RToken, error)
}

// RToken carries a read attempt's state (the paper's reader-local
// variables d and, for reader-priority locks, the attempt pid; for
// the epoch fast path, the leased stamp slot) from RLock to RUnlock.
// Treat it as opaque.
type RToken struct {
	side int32
	id   int64
	// eslot is the epoch fast path's leased stamp slot, carried in the
	// token so RUnlock reaches the slot directly instead of re-loading
	// the registry; nil on every other path.
	eslot *epochSlot
}

// WToken carries a write attempt's state (the paper's writer-local
// variables prevD/currD, the attempt pid, and the writer-arbitration
// slot — an MCS queue node or an Anderson array index, depending on
// how the lock was constructed) from Lock to Unlock.  Treat it as
// opaque.
type WToken struct {
	prev int32
	cur  int32
	slot wslot
	id   int64
}

// wwBit is the fetch&add unit of the writer-waiting component in the
// paper's packed [writer-waiting, reader-count] words: reader count in
// bits 0..31, writer-waiting flag at bit 32.  (Both components are
// manipulated only by atomic adds of +-1 and +-wwBit, and the reader
// count never goes negative, so the components cannot interfere below
// 2^31 concurrent readers.)
const wwBit = int64(1) << 32

// xTrue encodes the value "true" of the Figure 2 CAS variable X
// (domain PID ∪ {true}); attempt pids are positive.
const xTrue = int64(-1)

// W-token sentinels of Figure 4 (domain PID ∪ {false} ∪ {0,1}).
const (
	tokenFalse = int64(-2)
	tokenSide0 = int64(-3)
	tokenSide1 = int64(-4)
)

func tokenSide(d int32) int64 {
	if d == 0 {
		return tokenSide0
	}
	return tokenSide1
}

func isSideToken(t int64) bool { return t == tokenSide0 || t == tokenSide1 }

func sideOfToken(t int64) int32 {
	if t == tokenSide0 {
		return 0
	}
	return 1
}
