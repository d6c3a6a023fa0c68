package rwlock

import (
	"context"
	"sync/atomic"
)

// swwpCore is the shared-variable state and code of the paper's
// Figure 1 single-writer multi-reader algorithm.  SWWP uses it
// directly; MWSF wraps its writer side in Anderson's lock (Figure 3)
// and MWWP threads it through the Figure 4 W-token handoff.  The
// variables that distinct processes wait on are waitCells (one padded
// word plus the wake seam of the chosen WaitStrategy), each alone on
// its line, as the local-spin argument needs.
//
// The counters C[0], C[1] and EC share ONE line, deliberately.  No
// process ever waits on them — they are only fetch&added — so the
// local-spin argument does not need them apart, and keeping them
// apart only multiplies line transfers: a reader's exit (EC+1, C-1,
// EC-1) would move two contended lines three times, where on one line
// the run of adds pays for one transfer.  The same holds for the
// writer's waiting-room adds.  D (read by every reader, written by
// every writer doorway) stays on its own line with the read-only
// stats pointer, so a writer's toggle does not invalidate the
// counters and a reader's adds do not invalidate D.
type swwpCore struct {
	c  [2]atomic.Int64
	ec atomic.Int64
	_  [40]byte
	d  atomic.Int32
	_  [4]byte
	// stats, when non-nil, receives the read-path counters (acquires,
	// contended, sheds) and sampled read-wait latencies.  Write-path
	// counters belong to the wrapping lock, which knows its own
	// arbitration; the core only ever counts reads.  See WithStats.
	stats      *LockStats
	_          [48]byte
	exitPermit waitCell
	permit     [2]waitCell
	gate       [2]waitCell
}

// init sets the paper's initial values — D=0, Gate[0]=true,
// Gate[1]=false, counters zero — selects the wait strategy of every
// cell, and installs the stats block (nil disables all accounting).
func (l *swwpCore) init(s WaitStrategy, st *LockStats) {
	l.stats = st
	l.exitPermit.setStrategy(s)
	l.exitPermit.setStats(st)
	for i := range l.permit {
		l.permit[i].setStrategy(s)
		l.permit[i].setStats(st)
		l.gate[i].setStrategy(s)
		l.gate[i].setStats(st)
	}
	l.gate[0].store(cellTrue)
}

// writerDoorway is Figure 1 lines 2-3: toggle the side.
func (l *swwpCore) writerDoorway() (prev, cur int32) {
	prev = l.d.Load()
	cur = 1 - prev
	l.d.Store(cur)
	return prev, cur
}

// writerWaitingRoom is Figure 1 lines 4-12: wait for readers of the
// previous side to leave the CS, close their gate, then wait for the
// exit section to clear (the Section 3.3 subtlety — skipping this
// breaks mutual exclusion, as the repo's model checker demonstrates).
// The permit/exitPermit resets are plain stores: only this writer
// waits on them, and it is the one writing.
func (l *swwpCore) writerWaitingRoom(prev int32) {
	l.permit[prev].store(cellFalse)
	if l.c[prev].Add(wwBit) != wwBit { // old value != [0,0]
		l.permit[prev].wait(cellTrue)
	}
	l.c[prev].Add(-wwBit)
	l.gate[prev].store(cellFalse) // closing: nobody waits for false
	l.exitPermit.store(cellFalse)
	if l.ec.Add(wwBit) != wwBit { // old value != [0,0]
		l.exitPermit.wait(cellTrue)
	}
	l.ec.Add(-wwBit)
}

// writerExit is Figure 1 line 14: open the gate of the side the
// writer used, releasing (and waking) the readers queued behind it.
func (l *swwpCore) writerExit(cur int32) {
	l.gate[cur].storeWake(cellTrue)
}

// writePassage runs one complete Figure 1 write passage — doorway,
// waiting room, cs, exit — on the calling goroutine.  It is the
// closure-path write: MWSF's combined batches run it once per record
// while the combiner holds the arbitration mutex, so readers still
// get their gate window between any two batched writes.
func (l *swwpCore) writePassage(cs func()) {
	prev, cur := l.writerDoorway()
	l.writerWaitingRoom(prev)
	cs()
	l.writerExit(cur)
}

// registerReader is Figure 1 lines 16-23: register in the reader
// count of the current side, handling the writer-moved re-register
// dance.  It returns the side whose gate the reader is now entitled
// to wait on.
func (l *swwpCore) registerReader() int32 {
	d := l.d.Load()
	l.c[d].Add(1) // line 17
	d2 := l.d.Load()
	if d != d2 { // line 19: the writer moved; re-register
		l.c[d2].Add(1) // line 20
		d = l.d.Load() // line 21
		other := 1 - d
		if l.c[other].Add(-1) == wwBit { // line 22: old value was [1,1]
			l.permit[other].storeWake(cellTrue) // line 23
		}
	}
	return d
}

// readerLock is Figure 1 lines 16-24.
func (l *swwpCore) readerLock() RToken {
	if st := l.stats; st != nil {
		return l.readerLockStats(st)
	}
	d := l.registerReader()
	l.gate[d].wait(cellTrue) // line 24
	return RToken{side: d}
}

// readerLockStats is readerLock's instrumented twin, kept separate so
// the stats-disabled path above stays the pre-instrumentation body
// plus one nil check.  The contended probe reads the gate once before
// the wait: observing an open gate means the wait would have returned
// without blocking, so anything else counts as a contended entry.
func (l *swwpCore) readerLockStats(st *LockStats) RToken {
	var start int64
	sample := st.sampleNow()
	if sample {
		start = nowNanos()
	}
	d := l.registerReader()
	contended := l.gate[d].load() != cellTrue
	l.gate[d].wait(cellTrue) // line 24
	// Acquires before contended, so a concurrent Snapshot (which loads
	// contended first) always sees ReadContended <= ReadAcquires.
	st.ReadAcquires.Add(1)
	if contended {
		st.ReadContended.Add(1)
	}
	if sample {
		st.recordReadWait(nowNanos() - start)
	}
	return RToken{side: d}
}

// tryReaderLock is the non-blocking readerLock: it registers exactly
// as lines 17-23 do, then — where line 24 would wait — either finds
// the gate open and enters, or retires through the ordinary reader
// exit (a zero-length read passage) and reports failure.  The undo
// is clean because a registered reader that never entered is
// indistinguishable, protocol-wise, from one that entered and left
// immediately: readerUnlock keeps the counts and the last-reader
// permit handoffs exact either way.  Entering on an open gate is
// safe even when a writer is mid-passage on this side: the writer's
// waiting room drains this side's count BEFORE closing its gate, so
// an open gate with our registration in the count means any such
// writer is blocked on us.
func (l *swwpCore) tryReaderLock() (RToken, bool) {
	d := l.registerReader()
	if l.gate[d].load() != cellTrue {
		l.readerUnlock(RToken{side: d})
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return RToken{}, false
	}
	if st := l.stats; st != nil {
		st.ReadAcquires.Add(1)
	}
	return RToken{side: d}, true
}

// readerLockCtx is readerLock with the line 24 gate wait made
// cancellable; a cancelled reader retires through the same
// zero-length-passage undo tryReaderLock uses.
func (l *swwpCore) readerLockCtx(ctx context.Context) (RToken, error) {
	d := l.registerReader()
	if err := l.gate[d].waitCtx(ctx, cellTrue); err != nil {
		l.readerUnlock(RToken{side: d})
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return RToken{}, err
	}
	if st := l.stats; st != nil {
		st.ReadAcquires.Add(1)
	}
	return RToken{side: d}, nil
}

// readersIdle reports that no reader is registered on either side and
// the exit section is clear — the availability probe the writer-side
// TryLock runs before committing through the irreversible doorway.
// The three loads are a snapshot, not an atomic predicate: a reader
// may register the next instant, which is the race window TryLock's
// documentation qualifies.
func (l *swwpCore) readersIdle() bool {
	return l.c[0].Load()&(wwBit-1) == 0 &&
		l.c[1].Load()&(wwBit-1) == 0 &&
		l.ec.Load()&(wwBit-1) == 0
}

// readerUnlock is Figure 1 lines 26-30.
func (l *swwpCore) readerUnlock(t RToken) {
	l.ec.Add(1)                       // line 26
	if l.c[t.side].Add(-1) == wwBit { // line 27: old value was [1,1]
		l.permit[t.side].storeWake(cellTrue) // line 28
	}
	if l.ec.Add(-1) == wwBit { // line 29: old value was [1,1]
		l.exitPermit.storeWake(cellTrue) // line 30
	}
}

// SWWP is the paper's Figure 1: a single-writer multi-reader lock
// with WRITER PRIORITY (WP1, WP2) that also satisfies mutual
// exclusion, bounded exit, FIFE among readers, concurrent entering
// and starvation freedom (P1-P7).  Its RMR complexity is O(1) on
// cache-coherent machines (Theorem 1).
//
// At most one goroutine may be between Lock and Unlock at a time BY
// CONTRACT: this is the single-writer algorithm.  A second concurrent
// Lock panics.  Use NewMWWP when multiple writers are possible.
type SWWP struct {
	core       swwpCore
	writerBusy atomic.Bool
}

// NewSWWP returns a ready-to-use single-writer writer-priority lock.
func NewSWWP(opts ...Option) *SWWP {
	o := applyOptions(opts)
	l := &SWWP{}
	l.core.init(o.strategy, o.stats)
	return l
}

// Lock acquires the lock in write mode.  It panics if another write
// attempt is in progress (single-writer contract).
func (l *SWWP) Lock() WToken {
	if !l.writerBusy.CompareAndSwap(false, true) {
		panic("rwlock: concurrent Lock on single-writer SWWP lock (use NewMWWP)")
	}
	prev, cur := l.core.writerDoorway()
	l.core.writerWaitingRoom(prev)
	if st := l.core.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return WToken{prev: prev, cur: cur}
}

// Unlock releases write mode.
func (l *SWWP) Unlock(t WToken) {
	l.core.writerExit(t.cur)
	if !l.writerBusy.CompareAndSwap(true, false) {
		panic("rwlock: Unlock of unlocked SWWP lock")
	}
}

// Write runs cs in write mode (the closure path; see FuncWriter).
// The single-writer contract applies: a concurrent write attempt
// panics.
func (l *SWWP) Write(cs func()) {
	t := l.Lock()
	defer l.Unlock(t)
	cs()
}

// TryLock attempts write mode without blocking.  It fails when
// another write attempt is in progress (where Lock would panic —
// single-writer contract) or when any reader is registered.  The
// availability probe and the doorway commit are not atomic: a reader
// whose registration races into that window is drained by the
// ordinary waiting room, so TryLock never waits on a writer but can
// briefly wait out such a racing reader's passage.
func (l *SWWP) TryLock() (WToken, bool) {
	if !l.writerBusy.CompareAndSwap(false, true) {
		if st := l.core.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, false
	}
	if !l.core.readersIdle() {
		l.writerBusy.Store(false)
		if st := l.core.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, false
	}
	prev, cur := l.core.writerDoorway()
	l.core.writerWaitingRoom(prev)
	if st := l.core.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return WToken{prev: prev, cur: cur}, true
}

// TryRLock attempts read mode without blocking; see
// swwpCore.tryReaderLock for why the failure undo is clean.
func (l *SWWP) TryRLock() (RToken, bool) { return l.core.tryReaderLock() }

// LockCtx acquires write mode; cancellation wins only BEFORE the
// doorway (the direction-bit toggle), Figure 1's point of no return —
// past it the waiting room runs to completion regardless of ctx,
// bounded by the passages of the readers already inside.  Like Lock,
// it panics on a concurrent write attempt (single-writer contract).
func (l *SWWP) LockCtx(ctx context.Context) (WToken, error) {
	if err := ctx.Err(); err != nil {
		if st := l.core.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	if !l.writerBusy.CompareAndSwap(false, true) {
		panic("rwlock: concurrent Lock on single-writer SWWP lock (use NewMWWP)")
	}
	if err := ctx.Err(); err != nil {
		l.writerBusy.Store(false)
		if st := l.core.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	prev, cur := l.core.writerDoorway() // point of no return
	l.core.writerWaitingRoom(prev)
	if st := l.core.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return WToken{prev: prev, cur: cur}, nil
}

// RLockCtx acquires read mode, aborting the gate wait when ctx is
// cancelled; an aborted reader retires through a zero-length read
// passage, keeping the counts exact.
func (l *SWWP) RLockCtx(ctx context.Context) (RToken, error) {
	return l.core.readerLockCtx(ctx)
}

// WriteCtx runs cs in write mode unless ctx is cancelled first (see
// CtxFuncWriter); LockCtx's commitment point applies.
func (l *SWWP) WriteCtx(ctx context.Context, cs func()) error {
	t, err := l.LockCtx(ctx)
	if err != nil {
		return err
	}
	defer l.Unlock(t)
	cs()
	return nil
}

// RLock acquires the lock in read mode.
func (l *SWWP) RLock() RToken { return l.core.readerLock() }

// RUnlock releases read mode.
func (l *SWWP) RUnlock(t RToken) { l.core.readerUnlock(t) }

var _ RWLock = (*SWWP)(nil)
var _ FuncWriter = (*SWWP)(nil)
var _ TryRWLock = (*SWWP)(nil)
var _ CtxRWLock = (*SWWP)(nil)
var _ CtxFuncWriter = (*SWWP)(nil)
