package rwlock

import (
	"context"
	"sync/atomic"
)

// This file implements the paper's Section 5: the single-writer cores
// lifted to multi-writer locks.
//
// MWSF and MWRP use the Figure 3 transformation T verbatim: writers
// are serialized through the mutual-exclusion lock M around the
// single-writer protocol; readers run the single-writer protocol
// unchanged.  M is the pluggable writer-arbitration layer (mcs.go):
// the unbounded MCS queue by default, Anderson's array under
// WithBoundedWriters — either meets the FCFS + starvation-free +
// O(1)-RMR contract the Theorem 3-5 proofs require of M.
//
// MWWP implements Figure 4: T alone does not preserve writer priority
// (Section 5.1), so exiting writers hand the SWWP core directly to
// arriving writers through the W-token, and only the last writer to
// leave (with no writer waiting) exits the SWWP core and reopens the
// gate for readers.

// MWSF is the multi-writer multi-reader STARVATION-FREE lock of
// Theorem 3 (no priority class): mutual exclusion, bounded exit,
// FCFS among writers, FIFE among readers, concurrent entering,
// livelock- and starvation-freedom, with O(1) RMR complexity.
type MWSF struct {
	core  swwpCore
	m     writerMutex
	stats *LockStats
}

// NewMWSF returns a starvation-free reader-writer lock.  Writer
// concurrency is unbounded by default (MCS arbitration); pass
// WithBoundedWriters(n) to cap concurrent write attempts at n.
func NewMWSF(opts ...Option) *MWSF {
	o := applyOptions(opts)
	l := &MWSF{m: newWriterMutex(o), stats: o.stats}
	l.core.init(o.strategy, o.stats)
	if c, ok := l.m.(*combiner); ok {
		// Bind the combiner's per-record passage once, so Write can
		// submit the caller's closure unwrapped (no per-op allocation).
		c.passage = l.core.writePassage
	}
	return l
}

// Lock acquires the lock in write mode.
func (l *MWSF) Lock() WToken {
	if st := l.stats; st != nil {
		return l.lockStats(st)
	}
	slot := l.m.acquire()
	prev, cur := l.core.writerDoorway()
	l.core.writerWaitingRoom(prev)
	return WToken{prev: prev, cur: cur, slot: slot}
}

// lockStats is Lock's instrumented twin, kept separate so the
// stats-disabled path above stays the pre-instrumentation body plus
// one nil check.  holdStartNS is safe as a plain register: only the
// 1-in-statsSampleEvery sampled passage stores it, and write mode is
// exclusive, so the matching Unlock's swap sees either its own stamp
// or zero.
func (l *MWSF) lockStats(st *LockStats) WToken {
	var start int64
	sample := st.sampleNow()
	if sample {
		start = nowNanos()
	}
	slot := l.m.acquire()
	prev, cur := l.core.writerDoorway()
	l.core.writerWaitingRoom(prev)
	st.WriteAcquires.Add(1)
	if sample {
		now := nowNanos()
		st.recordWriteWait(now - start)
		st.holdStartNS.Store(now)
	}
	return WToken{prev: prev, cur: cur, slot: slot}
}

// Unlock releases write mode.
func (l *MWSF) Unlock(t WToken) {
	if st := l.stats; st != nil {
		if hs := st.holdStartNS.Swap(0); hs != 0 {
			st.recordWriteHold(nowNanos() - hs)
		}
	}
	l.core.writerExit(t.cur)
	l.m.release(t.slot)
}

// Write runs cs in write mode (the closure path; see FuncWriter).
// On a lock built with WithCombiningWriters this is where batching
// happens: cs is published to the combiner, which runs pending
// sections back-to-back — each inside the full Figure 1 write passage
// (the combiner's pre-bound passage hook) — within one acquisition of
// the arbitration mutex.
func (l *MWSF) Write(cs func()) {
	if c, ok := l.m.(*combiner); ok {
		c.exec(cs)
		if st := l.stats; st != nil {
			st.WriteAcquires.Add(1)
		}
		return
	}
	t := l.Lock()
	defer l.Unlock(t)
	cs()
}

// CombinerStats reports the batching statistics when the lock was
// built with WithCombiningWriters (see CombinerStatsOf).
func (l *MWSF) CombinerStats() (CombinerStats, bool) {
	if c, ok := l.m.(*combiner); ok {
		return c.snapshot(), true
	}
	return CombinerStats{}, false
}

// TryLock attempts write mode without blocking: a non-blocking probe
// of the arbitration mutex (tryAcquire — one CAS on the MCS tail, or
// the Anderson gate + availability check on /bounded locks) followed
// by the no-readers probe, and only then the irreversible doorway.
// The probe and the commit are not atomic: a reader registering in
// that window is drained by the ordinary waiting room, so TryLock
// never waits on a writer but can briefly wait out such a racer.
func (l *MWSF) TryLock() (WToken, bool) {
	t, st, ok := l.tryLockStaged()
	if ok && st != nil {
		st.WriteAcquires.Add(1)
	}
	return t, ok
}

// tryLockStaged is TryLock with the grant left uncounted (see
// stagedTryLocker).
func (l *MWSF) tryLockStaged() (WToken, *LockStats, bool) {
	slot, ok := l.m.tryAcquire()
	if !ok {
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, nil, false
	}
	if !l.core.readersIdle() {
		l.m.release(slot)
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, nil, false
	}
	prev, cur := l.core.writerDoorway()
	l.core.writerWaitingRoom(prev)
	return WToken{prev: prev, cur: cur, slot: slot}, l.stats, true
}

// TryRLock attempts read mode without blocking; a failed attempt
// retires through a zero-length read passage (see
// swwpCore.tryReaderLock).
func (l *MWSF) TryRLock() (RToken, bool) { return l.core.tryReaderLock() }

// LockCtx acquires write mode with the queue wait cancellable: while
// the writer waits its turn on the arbitration mutex — where an
// oversubscribed writer convoy actually waits — cancellation unlinks
// it (the MCS abort seam; on /bounded locks only the admission gate
// is abortable, see AndersonLock.AcquireCtx).  Once the mutex is
// granted the doorway commits the writer and ctx is not consulted
// again.
func (l *MWSF) LockCtx(ctx context.Context) (WToken, error) {
	slot, err := l.m.acquireCtx(ctx)
	if err != nil {
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	if err := ctx.Err(); err != nil {
		// Cancelled between grant and doorway: nothing of the core has
		// been touched, so handing the mutex on is a complete undo.
		l.m.release(slot)
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	prev, cur := l.core.writerDoorway() // point of no return
	l.core.writerWaitingRoom(prev)
	if st := l.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return WToken{prev: prev, cur: cur, slot: slot}, nil
}

// RLockCtx acquires read mode, aborting the gate wait when ctx is
// cancelled; the aborted reader retires through a zero-length read
// passage, keeping counts and permit handoffs exact.
func (l *MWSF) RLockCtx(ctx context.Context) (RToken, error) {
	return l.core.readerLockCtx(ctx)
}

// WriteCtx runs cs in write mode unless ctx is cancelled first.  On a
// combining lock cancellation wins only before the publication CAS (a
// published record always executes — see combiner.execCtx); otherwise
// LockCtx's commitment point applies.
func (l *MWSF) WriteCtx(ctx context.Context, cs func()) error {
	if c, ok := l.m.(*combiner); ok {
		err := c.execCtx(ctx, cs)
		if st := l.stats; st != nil {
			if err != nil {
				st.CtxSheds.Add(1)
			} else {
				st.WriteAcquires.Add(1)
			}
		}
		return err
	}
	t, err := l.LockCtx(ctx)
	if err != nil {
		return err
	}
	defer l.Unlock(t)
	cs()
	return nil
}

// RLock acquires the lock in read mode.
func (l *MWSF) RLock() RToken { return l.core.readerLock() }

// RUnlock releases read mode.
func (l *MWSF) RUnlock(t RToken) { l.core.readerUnlock(t) }

var _ RWLock = (*MWSF)(nil)
var _ FuncWriter = (*MWSF)(nil)
var _ TryRWLock = (*MWSF)(nil)
var _ CtxRWLock = (*MWSF)(nil)
var _ CtxFuncWriter = (*MWSF)(nil)

// MWRP is the multi-writer multi-reader READER-PRIORITY lock of
// Theorem 4: properties P1-P6 plus RP1/RP2, with O(1) RMR
// complexity.  Writers may starve while readers keep arriving.
type MWRP struct {
	core  swrpCore
	m     writerMutex
	stats *LockStats
}

// NewMWRP returns a reader-priority reader-writer lock.  Writer
// concurrency is unbounded by default (MCS arbitration); pass
// WithBoundedWriters(n) to cap concurrent write attempts at n.
func NewMWRP(opts ...Option) *MWRP {
	o := applyOptions(opts)
	l := &MWRP{m: newWriterMutex(o), stats: o.stats}
	l.core.init(o.strategy, o.stats)
	if c, ok := l.m.(*combiner); ok {
		c.passage = l.core.writePassage // see NewMWSF
	}
	return l
}

// Lock acquires the lock in write mode.
func (l *MWRP) Lock() WToken {
	if st := l.stats; st != nil {
		return l.lockStats(st)
	}
	slot := l.m.acquire()
	t := l.core.writerLock()
	t.slot = slot
	return t
}

// lockStats is Lock's instrumented twin; see MWSF.lockStats for the
// holdStartNS register discipline.
func (l *MWRP) lockStats(st *LockStats) WToken {
	var start int64
	sample := st.sampleNow()
	if sample {
		start = nowNanos()
	}
	slot := l.m.acquire()
	t := l.core.writerLock()
	t.slot = slot
	st.WriteAcquires.Add(1)
	if sample {
		now := nowNanos()
		st.recordWriteWait(now - start)
		st.holdStartNS.Store(now)
	}
	return t
}

// Unlock releases write mode.
func (l *MWRP) Unlock(t WToken) {
	if st := l.stats; st != nil {
		if hs := st.holdStartNS.Swap(0); hs != 0 {
			st.recordWriteHold(nowNanos() - hs)
		}
	}
	l.core.writerUnlock(t)
	l.m.release(t.slot)
}

// Write runs cs in write mode (the closure path; see FuncWriter).
// On a combining lock cs is published and batched, each record run
// inside the full Figure 2 write passage; see MWSF.Write.
func (l *MWRP) Write(cs func()) {
	if c, ok := l.m.(*combiner); ok {
		c.exec(cs)
		if st := l.stats; st != nil {
			st.WriteAcquires.Add(1)
		}
		return
	}
	t := l.Lock()
	defer l.Unlock(t)
	cs()
}

// CombinerStats reports the batching statistics when the lock was
// built with WithCombiningWriters (see CombinerStatsOf).
func (l *MWRP) CombinerStats() (CombinerStats, bool) {
	if c, ok := l.m.(*combiner); ok {
		return c.snapshot(), true
	}
	return CombinerStats{}, false
}

// TryLock attempts write mode without blocking: the arbitration
// mutex's non-blocking probe, then the no-readers probe (under reader
// priority a writer facing registered readers may wait unboundedly),
// then the commit.  As with every TryLock in the package, a reader
// registering between probe and commit is waited out through the
// promotion handoff — the documented race window.
func (l *MWRP) TryLock() (WToken, bool) {
	t, st, ok := l.tryLockStaged()
	if ok && st != nil {
		st.WriteAcquires.Add(1)
	}
	return t, ok
}

// tryLockStaged is TryLock with the grant left uncounted (see
// stagedTryLocker).
func (l *MWRP) tryLockStaged() (WToken, *LockStats, bool) {
	slot, ok := l.m.tryAcquire()
	if !ok {
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, nil, false
	}
	if l.core.c.Load() != 0 {
		l.m.release(slot)
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, nil, false
	}
	t := l.core.writerLock()
	t.slot = slot
	return t, l.stats, true
}

// TryRLock attempts read mode without blocking; under reader priority
// it fails only while a writer owns (or has just been promoted into)
// the CS.  See swrpCore.tryReaderLock.
func (l *MWRP) TryRLock() (RToken, bool) { return l.core.tryReaderLock() }

// LockCtx acquires write mode with the arbitration-queue wait
// cancellable.  Once the mutex is granted and the core's direction
// toggle runs, the writer is committed; under reader priority that
// committed wait is unbounded while readers keep arriving, and ctx
// cannot recall it — deadline writers on a reader-priority lock
// should expect cancellation to win only in the queue.
func (l *MWRP) LockCtx(ctx context.Context) (WToken, error) {
	slot, err := l.m.acquireCtx(ctx)
	if err != nil {
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	if err := ctx.Err(); err != nil {
		l.m.release(slot) // core untouched: a complete undo
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	t := l.core.writerLock() // point of no return
	t.slot = slot
	if st := l.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return t, nil
}

// RLockCtx acquires read mode, aborting the gate wait when ctx is
// cancelled; the aborted reader retires through a zero-length read
// passage (C decrement + Promote), keeping the promotion handoff
// exact.
func (l *MWRP) RLockCtx(ctx context.Context) (RToken, error) {
	return l.core.readerLockCtx(ctx)
}

// WriteCtx runs cs in write mode unless ctx is cancelled first; on a
// combining lock the publication CAS is the point of no return (see
// combiner.execCtx), otherwise LockCtx's commitment points apply.
func (l *MWRP) WriteCtx(ctx context.Context, cs func()) error {
	if c, ok := l.m.(*combiner); ok {
		err := c.execCtx(ctx, cs)
		if st := l.stats; st != nil {
			if err != nil {
				st.CtxSheds.Add(1)
			} else {
				st.WriteAcquires.Add(1)
			}
		}
		return err
	}
	t, err := l.LockCtx(ctx)
	if err != nil {
		return err
	}
	defer l.Unlock(t)
	cs()
	return nil
}

// RLock acquires the lock in read mode.
func (l *MWRP) RLock() RToken { return l.core.readerLock() }

// RUnlock releases read mode.
func (l *MWRP) RUnlock(t RToken) { l.core.readerUnlock(t) }

var _ RWLock = (*MWRP)(nil)
var _ FuncWriter = (*MWRP)(nil)
var _ TryRWLock = (*MWRP)(nil)
var _ CtxRWLock = (*MWRP)(nil)
var _ CtxFuncWriter = (*MWRP)(nil)

// MWWP is the multi-writer multi-reader WRITER-PRIORITY lock of
// Theorem 5 (the paper's Figure 4): properties P1-P6 plus WP1/WP2,
// with O(1) RMR complexity.  Readers may starve while writers keep
// arriving.
type MWWP struct {
	core   swwpCore
	wcount atomic.Int64
	_      [56]byte
	wtoken atomic.Int64 // PID (>=0) ∪ {tokenFalse} ∪ side tokens
	_      [56]byte
	idCtr  atomic.Int64
	_      [56]byte
	m      writerMutex
	stats  *LockStats
}

// NewMWWP returns a writer-priority reader-writer lock.  Writer
// concurrency is unbounded by default (MCS arbitration); pass
// WithBoundedWriters(n) to cap concurrent write attempts at n.
func NewMWWP(opts ...Option) *MWWP {
	o := applyOptions(opts)
	l := &MWWP{m: newWriterMutex(o), stats: o.stats}
	l.core.init(o.strategy, o.stats)
	// W-token starts as the side token for side 1 so the first writer
	// behaves exactly like the first SWWP attempt (D: 0 -> 1).
	l.wtoken.Store(tokenSide(1))
	if c, ok := l.m.(*combiner); ok {
		c.passage = l.combinedPassage // see NewMWSF
	}
	return l
}

// doorway is Figure 4 lines 2-8: the wait-free announcement every
// writer — token-path or combining — performs before queueing on (or
// publishing to) the arbitration mutex M.
func (l *MWWP) doorway() {
	l.wcount.Add(1)      // line 2
	t := l.wtoken.Load() // line 3
	if t >= 0 {          // line 4: t is a pid
		l.wtoken.CompareAndSwap(t, tokenFalse) // line 5
	}
	t = l.wtoken.Load() // line 6
	if isSideToken(t) { // line 7
		l.core.d.Store(int32(sideOfToken(t))) // line 8: SWWP doorway
	}
}

// Lock acquires the lock in write mode (Figure 4 lines 2-13).  The
// line 12 gate wait inside enterHeld covers the previous writer
// having won the CAS at line 19 but not yet reopened the gate at line
// 20; writerExit's storeWake is the matching signal.
func (l *MWWP) Lock() WToken {
	if st := l.stats; st != nil {
		return l.lockStats(st)
	}
	id := l.idCtr.Add(1)
	l.doorway()           // lines 2-8
	slot := l.m.acquire() // line 9
	prev, cur := l.enterHeld()
	return WToken{prev: prev, cur: cur, slot: slot, id: id}
}

// lockStats is Lock's instrumented twin; see MWSF.lockStats for the
// holdStartNS register discipline.
func (l *MWWP) lockStats(st *LockStats) WToken {
	var start int64
	sample := st.sampleNow()
	if sample {
		start = nowNanos()
	}
	id := l.idCtr.Add(1)
	l.doorway()           // lines 2-8
	slot := l.m.acquire() // line 9
	prev, cur := l.enterHeld()
	st.WriteAcquires.Add(1)
	if sample {
		now := nowNanos()
		st.recordWriteWait(now - start)
		st.holdStartNS.Store(now)
	}
	return WToken{prev: prev, cur: cur, slot: slot, id: id}
}

// Unlock releases write mode (Figure 4 lines 15-20).
func (l *MWWP) Unlock(t WToken) {
	if st := l.stats; st != nil {
		if hs := st.holdStartNS.Swap(0); hs != 0 {
			st.recordWriteHold(nowNanos() - hs)
		}
	}
	l.wtoken.Store(t.id)      // line 15
	l.wcount.Add(-1)          // line 16
	l.m.release(t.slot)       // line 17
	if l.wcount.Load() == 0 { // line 18
		if l.wtoken.CompareAndSwap(t.id, tokenSide(t.prev)) { // line 19
			l.core.writerExit(t.cur) // line 20
		}
	}
}

// Write runs cs in write mode (the closure path; see FuncWriter).
// On a combining lock the Figure 4 passage is split around the
// arbitration mutex M exactly where Lock/Unlock are: the doorway
// (lines 2-8) runs on the calling goroutine before publication, and
// the combiner — holding M in place of line 9's acquire — runs
// combinedPassage (lines 10-20) once per record.
func (l *MWWP) Write(cs func()) {
	c, ok := l.m.(*combiner)
	if !ok {
		t := l.Lock()
		defer l.Unlock(t)
		cs()
		return
	}
	l.doorway() // lines 2-8, before publication
	c.exec(cs)
	if st := l.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
}

// combinedPassage is the combiner-side half of a combined Figure 4
// write: M is held for the whole batch (lines 9/17), the submitter
// already ran the doorway, and this runs lines 10-13, cs, and lines
// 15-16 for one record.  The attempt pid is drawn here rather than at
// the doorway — it is unused before line 15, and drawing it inside
// the passage keeps the published record closure-free.  The
// last-writer exit check (lines 18-20) also runs per record, with M
// still held rather than after line 17's release; that narrows but
// does not change the race the line-19 CAS already arbitrates — a
// writer arriving after the check handles both outcomes (pid → fast
// handoff, side token → doorway + waiting room), exactly as in the
// unbatched algorithm.  Mid-batch records see wcount > 0 (their
// publishers counted in at line 2 before publishing, which precedes
// the combiner's drain), so the gate stays closed across a batch —
// the writer-priority batching.
func (l *MWWP) combinedPassage(cs func()) {
	id := l.idCtr.Add(1)
	cur := l.core.d.Load() // line 10
	prev := 1 - cur
	if isSideToken(l.wtoken.Load()) { // line 11
		l.core.gate[prev].wait(cellTrue) // line 12
		l.core.writerWaitingRoom(prev)   // line 13
	}
	cs()
	l.wtoken.Store(id)        // line 15
	l.wcount.Add(-1)          // line 16
	if l.wcount.Load() == 0 { // line 18
		if l.wtoken.CompareAndSwap(id, tokenSide(prev)) { // line 19
			l.core.writerExit(cur) // line 20
		}
	}
}

// CombinerStats reports the batching statistics when the lock was
// built with WithCombiningWriters (see CombinerStatsOf).
func (l *MWWP) CombinerStats() (CombinerStats, bool) {
	if c, ok := l.m.(*combiner); ok {
		return c.snapshot(), true
	}
	return CombinerStats{}, false
}

// enterHeld is Figure 4 lines 10-13, run with the arbitration mutex
// held and the doorway done: take the fast W-token handoff when a
// predecessor left the SWWP core held, or run the gate wait + waiting
// room when the side token says the core must be (re)entered.
func (l *MWWP) enterHeld() (prev, cur int32) {
	cur = l.core.d.Load() // line 10
	prev = 1 - cur
	if isSideToken(l.wtoken.Load()) { // line 11
		l.core.gate[prev].wait(cellTrue) // line 12
		l.core.writerWaitingRoom(prev)   // line 13
	}
	return prev, cur
}

// TryLock attempts write mode without blocking: the arbitration
// mutex's non-blocking probe first, then — only when the W-token is a
// side token, i.e. no predecessor left the core held for us — the
// no-readers probe, and then the commit (doorway + lines 10-13).
// Unlike the blocking Lock, the doorway runs AFTER the mutex probe;
// see LockCtx for why that reordering is sound.  The probes and the
// commit are not atomic: a reader registering (or a predecessor
// reopening the gate) in that window is drained by the ordinary
// waiting room — the documented race window.
func (l *MWWP) TryLock() (WToken, bool) {
	t, st, ok := l.tryLockStaged()
	if ok && st != nil {
		st.WriteAcquires.Add(1)
	}
	return t, ok
}

// tryLockStaged is TryLock with the grant left uncounted (see
// stagedTryLocker).
func (l *MWWP) tryLockStaged() (WToken, *LockStats, bool) {
	slot, ok := l.m.tryAcquire()
	if !ok {
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, nil, false
	}
	if isSideToken(l.wtoken.Load()) && !l.core.readersIdle() {
		l.m.release(slot)
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, nil, false
	}
	id := l.idCtr.Add(1)
	l.doorway() // commit
	prev, cur := l.enterHeld()
	return WToken{prev: prev, cur: cur, slot: slot, id: id}, l.stats, true
}

// TryRLock attempts read mode without blocking; a failed attempt
// retires through a zero-length read passage (see
// swwpCore.tryReaderLock).
func (l *MWWP) TryRLock() (RToken, bool) { return l.core.tryReaderLock() }

// LockCtx acquires write mode with the arbitration-queue wait
// cancellable.  To stay abortable while queued it DELAYS the Figure 4
// doorway until after the mutex grant: the blocking Lock announces
// itself (Wcount, the W-token CAS) before queueing so that even a
// deeply queued writer convoy keeps the reader gate closed across
// handoffs, but an announced writer cannot retract (nothing ever
// decrements Wcount except a completed passage).  Exclusion and
// starvation-freedom are unaffected — every CS-entry wait (lines
// 10-13) runs under the mutex either way, and the line 19 CAS
// arbitrates the exit race identically — but a ctx writer parked in
// the queue does not hold the gate closed, so WP1's early
// cross-handoff gate closing narrows to announced (blocking-path)
// writers.  After the grant, the doorway is the point of no return.
func (l *MWWP) LockCtx(ctx context.Context) (WToken, error) {
	slot, err := l.m.acquireCtx(ctx)
	if err != nil {
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	if err := ctx.Err(); err != nil {
		// Not yet announced: handing the mutex on is a complete undo.
		l.m.release(slot)
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	id := l.idCtr.Add(1)
	l.doorway() // point of no return
	prev, cur := l.enterHeld()
	if st := l.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return WToken{prev: prev, cur: cur, slot: slot, id: id}, nil
}

// RLockCtx acquires read mode, aborting the gate wait when ctx is
// cancelled; the aborted reader retires through a zero-length read
// passage, keeping counts and permit handoffs exact.
func (l *MWWP) RLockCtx(ctx context.Context) (RToken, error) {
	return l.core.readerLockCtx(ctx)
}

// WriteCtx runs cs in write mode unless ctx is cancelled first.  On a
// combining lock the point of no return is the DOORWAY, not the
// publication CAS: Write must announce Wcount before publishing (the
// writer-priority batching depends on it), and an announced writer
// cannot retract, so WriteCtx checks ctx once and then commits
// through the uncancellable Write path.  On a non-combining lock
// LockCtx's commitment points apply.
func (l *MWWP) WriteCtx(ctx context.Context, cs func()) error {
	c, ok := l.m.(*combiner)
	if !ok {
		t, err := l.LockCtx(ctx)
		if err != nil {
			return err
		}
		defer l.Unlock(t)
		cs()
		return nil
	}
	if err := ctx.Err(); err != nil {
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return err
	}
	l.doorway() // point of no return: Wcount is announced
	c.exec(cs)
	if st := l.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return nil
}

// RLock acquires the lock in read mode (the unchanged SWWP reader).
func (l *MWWP) RLock() RToken { return l.core.readerLock() }

// RUnlock releases read mode.
func (l *MWWP) RUnlock(t RToken) { l.core.readerUnlock(t) }

var _ RWLock = (*MWWP)(nil)
var _ FuncWriter = (*MWWP)(nil)
var _ TryRWLock = (*MWWP)(nil)
var _ CtxRWLock = (*MWWP)(nil)
var _ CtxFuncWriter = (*MWWP)(nil)
