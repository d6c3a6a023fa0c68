package rwlock

import (
	"context"
	"sync/atomic"
)

// swrpCore is the shared-variable state and code of the paper's
// Figure 2 single-writer multi-reader reader-priority algorithm.
// SWRP uses it directly; MWRP wraps its writer side in Anderson's
// lock (Figure 3).  Gate and Permit — the variables processes wait on
// — are waitCells; X and C are only read/CAS'd/fetch&added, never
// waited on, so they stay plain atomics.
type swrpCore struct {
	d      atomic.Int32
	_      [60]byte
	gate   [2]waitCell
	x      atomic.Int64 // X in PID ∪ {true}; xTrue encodes true
	_      [56]byte
	permit waitCell
	c      atomic.Int64
	_      [56]byte
	// idCtr issues fresh attempt pids.  The paper only needs pids to
	// be unique among concurrent attempts; monotone fresh ids give
	// that and additionally rule out ABA on X entirely.
	idCtr atomic.Int64
	// stats, when non-nil, receives the read-path counters; write-path
	// counters belong to the wrapping lock.  See WithStats and the
	// matching field on swwpCore.
	stats *LockStats
}

// init sets the paper's initial values — D=0, Gate[0]=true, X = some
// pid (0, smaller than every issued id), Permit=true, C=0 — selects
// the wait strategy of every cell, and installs the stats block.
func (l *swrpCore) init(s WaitStrategy, st *LockStats) {
	l.stats = st
	for i := range l.gate {
		l.gate[i].setStrategy(s)
		l.gate[i].setStats(st)
	}
	l.permit.setStrategy(s)
	l.permit.setStats(st)
	l.gate[0].store(cellTrue)
	l.permit.store(cellTrue)
}

// newID returns a fresh positive attempt pid.
func (l *swrpCore) newID() int64 { return l.idCtr.Add(1) }

// promote is the paper's Promote() (Figure 2 lines 10-16): enable the
// writer iff no readers are registered.  The two-step CAS through the
// caller's own pid is the Section 4.3(B) subtlety: CASing true
// directly breaks mutual exclusion.  The Permit store is the wake
// side of the writer's wait at line 5, so it must signal: an exiting
// reader's Promote may be what releases a parked writer.
func (l *swrpCore) promote(id int64) {
	x := l.x.Load() // line 10
	if x == xTrue { // line 11
		return
	}
	if !l.x.CompareAndSwap(x, id) { // line 12
		return
	}
	if l.permit.load() != cellFalse { // line 13
		return
	}
	if l.c.Load() != 0 { // line 14
		return
	}
	if l.x.CompareAndSwap(id, xTrue) { // line 15
		l.permit.storeWake(cellTrue) // line 16
	}
}

// writerLock is Figure 2 lines 2-5.
func (l *swrpCore) writerLock() WToken {
	id := l.newID()
	cur := 1 - l.d.Load() // line 2
	l.d.Store(cur)
	l.permit.store(cellFalse) // line 3: own reset, nobody waits for false
	l.promote(id)             // line 4
	l.permit.wait(cellTrue)   // line 5
	return WToken{cur: cur, prev: 1 - cur, id: id}
}

// writerUnlock is Figure 2 lines 7-9.
func (l *swrpCore) writerUnlock(t WToken) {
	l.gate[1-t.cur].store(cellFalse)  // line 7: closing, no wake needed
	l.gate[t.cur].storeWake(cellTrue) // line 8: releases queued readers
	l.x.Store(t.id)                   // line 9
}

// writePassage runs one complete Figure 2 write passage on the
// calling goroutine — the closure-path write MWRP's combined batches
// run once per record while the combiner holds the arbitration mutex.
func (l *swrpCore) writePassage(cs func()) {
	t := l.writerLock()
	cs()
	l.writerUnlock(t)
}

// registerReader is Figure 2 lines 18-23: register in C, run the X
// dance, and report whether the writer owns the CS (X == true), i.e.
// whether line 24 would wait at the gate.
func (l *swrpCore) registerReader() (d int32, id int64, mustWait bool) {
	id = l.newID()
	l.c.Add(1)      // line 18
	d = l.d.Load()  // line 19
	x := l.x.Load() // line 20
	if x != xTrue { // line 21
		l.x.CompareAndSwap(x, id) // line 22
	}
	mustWait = l.x.Load() == xTrue // line 23
	return d, id, mustWait
}

// readerLock is Figure 2 lines 18-24.
func (l *swrpCore) readerLock() RToken {
	if st := l.stats; st != nil {
		return l.readerLockStats(st)
	}
	d, id, mustWait := l.registerReader()
	if mustWait {
		l.gate[d].wait(cellTrue) // line 24
	}
	return RToken{side: d, id: id}
}

// readerLockStats is readerLock's instrumented twin (see the swwpCore
// counterpart); mustWait is the algorithm's own contended signal.
func (l *swrpCore) readerLockStats(st *LockStats) RToken {
	var start int64
	sample := st.sampleNow()
	if sample {
		start = nowNanos()
	}
	d, id, mustWait := l.registerReader()
	if mustWait {
		l.gate[d].wait(cellTrue) // line 24
	}
	// Acquires before contended; see the swwpCore twin.
	st.ReadAcquires.Add(1)
	if mustWait {
		st.ReadContended.Add(1)
	}
	if sample {
		st.recordReadWait(nowNanos() - start)
	}
	return RToken{side: d, id: id}
}

// tryReaderLock is the non-blocking readerLock: it fails exactly when
// line 24 would wait (the writer holds or has just been promoted into
// the CS), retiring through the ordinary reader exit — C decrement
// plus Promote, a zero-length read passage that keeps the
// last-reader-promotes-the-writer handoff exact.
func (l *swrpCore) tryReaderLock() (RToken, bool) {
	d, id, mustWait := l.registerReader()
	if mustWait {
		l.readerUnlock(RToken{side: d, id: id})
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return RToken{}, false
	}
	if st := l.stats; st != nil {
		st.ReadAcquires.Add(1)
	}
	return RToken{side: d, id: id}, true
}

// readerLockCtx is readerLock with the gate wait made cancellable; a
// cancelled reader retires through the same zero-length-passage undo
// tryReaderLock uses.
func (l *swrpCore) readerLockCtx(ctx context.Context) (RToken, error) {
	d, id, mustWait := l.registerReader()
	if mustWait {
		if err := l.gate[d].waitCtx(ctx, cellTrue); err != nil {
			l.readerUnlock(RToken{side: d, id: id})
			if st := l.stats; st != nil {
				st.CtxSheds.Add(1)
			}
			return RToken{}, err
		}
	}
	if st := l.stats; st != nil {
		st.ReadAcquires.Add(1)
	}
	return RToken{side: d, id: id}, nil
}

// readerUnlock is Figure 2 lines 26-27.
func (l *swrpCore) readerUnlock(t RToken) {
	l.c.Add(-1)     // line 26
	l.promote(t.id) // line 27
}

// SWRP is the paper's Figure 2: a single-writer multi-reader lock
// with READER PRIORITY (RP1, RP2): a reader that is waiting while the
// CS is read-occupied is always enabled, and a writer never overtakes
// a reader that has higher >rp priority.  The writer may starve while
// readers keep arriving — that is the specified behaviour.  RMR
// complexity is O(1) on cache-coherent machines (Theorem 2).
//
// At most one goroutine may be between Lock and Unlock at a time
// (single-writer contract); a second concurrent Lock panics.  Use
// NewMWRP when multiple writers are possible.
type SWRP struct {
	core       swrpCore
	writerBusy atomic.Bool
}

// NewSWRP returns a ready-to-use single-writer reader-priority lock.
func NewSWRP(opts ...Option) *SWRP {
	o := applyOptions(opts)
	l := &SWRP{}
	l.core.init(o.strategy, o.stats)
	return l
}

// Lock acquires the lock in write mode.  It panics if another write
// attempt is in progress (single-writer contract).
func (l *SWRP) Lock() WToken {
	if !l.writerBusy.CompareAndSwap(false, true) {
		panic("rwlock: concurrent Lock on single-writer SWRP lock (use NewMWRP)")
	}
	t := l.core.writerLock()
	if st := l.core.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return t
}

// Unlock releases write mode.
func (l *SWRP) Unlock(t WToken) {
	l.core.writerUnlock(t)
	if !l.writerBusy.CompareAndSwap(true, false) {
		panic("rwlock: Unlock of unlocked SWRP lock")
	}
}

// Write runs cs in write mode (the closure path; see FuncWriter).
// The single-writer contract applies: a concurrent write attempt
// panics.
func (l *SWRP) Write(cs func()) {
	t := l.Lock()
	defer l.Unlock(t)
	cs()
}

// TryLock attempts write mode without blocking.  It fails when
// another write attempt is in progress (where Lock would panic —
// single-writer contract) or when any reader is registered (under
// reader priority a writer facing readers may wait unboundedly, so
// "reader present" is the busy condition).  The probe and the commit
// (the line 2 direction toggle) are not atomic: a reader registering
// in that window is waited out via the promotion handoff — TryLock
// never waits on a writer but can briefly wait on such a racer.
func (l *SWRP) TryLock() (WToken, bool) {
	if !l.writerBusy.CompareAndSwap(false, true) {
		if st := l.core.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, false
	}
	if l.core.c.Load() != 0 {
		l.writerBusy.Store(false)
		if st := l.core.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, false
	}
	t := l.core.writerLock()
	if st := l.core.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return t, true
}

// TryRLock attempts read mode without blocking; see
// swrpCore.tryReaderLock for the failure condition and undo.
func (l *SWRP) TryRLock() (RToken, bool) { return l.core.tryReaderLock() }

// LockCtx acquires write mode; cancellation wins only BEFORE the
// line 2 direction toggle, Figure 2's point of no return.  Past it
// the writer is committed and exposed to the discipline's own
// semantics — under reader priority that wait is unbounded while
// readers keep arriving, and ctx cannot recall it (aborting after
// Promote poisons the X/Permit handshake).  Like Lock, it panics on
// a concurrent write attempt (single-writer contract).
func (l *SWRP) LockCtx(ctx context.Context) (WToken, error) {
	if err := ctx.Err(); err != nil {
		if st := l.core.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	if !l.writerBusy.CompareAndSwap(false, true) {
		panic("rwlock: concurrent Lock on single-writer SWRP lock (use NewMWRP)")
	}
	if err := ctx.Err(); err != nil {
		l.writerBusy.Store(false)
		if st := l.core.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	t := l.core.writerLock() // line 2 = point of no return
	if st := l.core.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return t, nil
}

// RLockCtx acquires read mode, aborting the gate wait when ctx is
// cancelled; the aborted reader retires through a zero-length read
// passage.
func (l *SWRP) RLockCtx(ctx context.Context) (RToken, error) {
	return l.core.readerLockCtx(ctx)
}

// WriteCtx runs cs in write mode unless ctx is cancelled first (see
// CtxFuncWriter); LockCtx's commitment point applies.
func (l *SWRP) WriteCtx(ctx context.Context, cs func()) error {
	t, err := l.LockCtx(ctx)
	if err != nil {
		return err
	}
	defer l.Unlock(t)
	cs()
	return nil
}

// RLock acquires the lock in read mode.
func (l *SWRP) RLock() RToken { return l.core.readerLock() }

// RUnlock releases read mode.
func (l *SWRP) RUnlock(t RToken) { l.core.readerUnlock(t) }

var _ RWLock = (*SWRP)(nil)
var _ FuncWriter = (*SWRP)(nil)
var _ TryRWLock = (*SWRP)(nil)
var _ CtxRWLock = (*SWRP)(nil)
var _ CtxFuncWriter = (*SWRP)(nil)
