package rwlock

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file provides the baselines the paper's locks are benchmarked
// against in EXPERIMENTS.md:
//
//   - CentralizedRW: the folklore one-word counter reader-writer spin
//     lock.  Simple and fast uncontended, but every waiter waits on
//     the same word, so its RMR traffic grows with the number of
//     processes — the gap the paper closes.
//   - PhaseFairRW: a ticket-based phase-fair reader-writer lock in
//     the style of Brandenburg & Anderson (ECRTS 2009, the paper's
//     [26]): writers are FIFO, and readers that arrive while a writer
//     waits are admitted after exactly one writer phase.
//   - RWMutexLock: the Go standard library's sync.RWMutex behind the
//     package's token interface (tokens are ignored).
//
// All waiting goes through waitCells, so the baselines honor the same
// WaitStrategy options as the paper's locks — the oversubscription
// experiments compare like with like.
type noCopy struct{}

// Lock and Unlock make noCopy trip `go vet -copylocks`.
func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// CentralizedRW is the classical counter-based reader-writer spin
// lock: readers fetch&add a reader unit and back off if a writer is
// present; writers fetch&add a writer unit, then drain readers.
// Mutual exclusion holds, but there is no FCFS/FIFE and no RMR bound:
// all waiting is on one global word.
type CentralizedRW struct {
	_   noCopy
	cnt waitCell // writer count at bit 32+, reader count below
}

// NewCentralizedRW returns a ready centralized lock.
func NewCentralizedRW(opts ...Option) *CentralizedRW {
	l := &CentralizedRW{}
	l.cnt.setStrategy(applyOptions(opts).strategy)
	return l
}

// noReaders/noWriters are the wait conditions of the packed word:
// static predicates, so waitUntil calls allocate nothing.
func noReaders(v int64) bool { return v&(wwBit-1) == 0 }
func noWriters(v int64) bool { return v>>32 == 0 }

// Lock acquires write mode.
func (l *CentralizedRW) Lock() WToken {
	for {
		old := l.cnt.add(wwBit) - wwBit
		if old == 0 {
			return WToken{}
		}
		if old>>32 == 0 {
			// Only readers ahead: drain them.
			l.cnt.waitUntil(noReaders)
			return WToken{}
		}
		// Another writer: back off and retry when it leaves.  The
		// retreat clears our writer unit, which waiting readers watch
		// for, so it must wake.
		l.cnt.addWake(-wwBit)
		l.cnt.waitUntil(noWriters)
	}
}

// Unlock releases write mode.
func (l *CentralizedRW) Unlock(WToken) { l.cnt.addWake(-wwBit) }

// RLock acquires read mode.
func (l *CentralizedRW) RLock() RToken {
	for {
		old := l.cnt.add(1) - 1
		if old>>32 == 0 {
			return RToken{}
		}
		// A writer is present: retreat (waking the writer draining
		// readers) and wait for a writer-free word.
		l.cnt.addWake(-1)
		l.cnt.waitUntil(noWriters)
	}
}

// RUnlock releases read mode.
func (l *CentralizedRW) RUnlock(RToken) { l.cnt.addWake(-1) }

// TryLock attempts write mode without blocking: one CAS of the free
// word.  The centralized lock is the one discipline whose whole state
// is a single word, so its try is exact — no probe window.
func (l *CentralizedRW) TryLock() (WToken, bool) {
	if l.cnt.cas(0, wwBit) {
		return WToken{}, true
	}
	return WToken{}, false
}

// TryRLock attempts read mode without blocking: register, and retreat
// (waking any draining writer) if a writer was present.
func (l *CentralizedRW) TryRLock() (RToken, bool) {
	if (l.cnt.add(1)-1)>>32 == 0 {
		return RToken{}, true
	}
	l.cnt.addWake(-1)
	return RToken{}, false
}

// LockCtx acquires write mode; every wait is cancellable because
// every step of this lock is reversible — a cancelled drain retreats
// by removing the writer unit (waking the readers watching for it),
// exactly as the back-off path of Lock does.
func (l *CentralizedRW) LockCtx(ctx context.Context) (WToken, error) {
	for {
		old := l.cnt.add(wwBit) - wwBit
		if old == 0 {
			return WToken{}, nil
		}
		if old>>32 == 0 {
			if err := l.cnt.waitUntilCtx(ctx, noReaders); err != nil {
				l.cnt.addWake(-wwBit) // retreat; readers watch noWriters
				return WToken{}, err
			}
			return WToken{}, nil
		}
		l.cnt.addWake(-wwBit)
		if err := l.cnt.waitUntilCtx(ctx, noWriters); err != nil {
			return WToken{}, err
		}
	}
}

// RLockCtx acquires read mode; cancellation can only land in the
// retreated (nothing-held) wait, so the undo is free.
func (l *CentralizedRW) RLockCtx(ctx context.Context) (RToken, error) {
	for {
		if (l.cnt.add(1)-1)>>32 == 0 {
			return RToken{}, nil
		}
		l.cnt.addWake(-1)
		if err := l.cnt.waitUntilCtx(ctx, noWriters); err != nil {
			return RToken{}, err
		}
	}
}

var _ RWLock = (*CentralizedRW)(nil)
var _ TryRWLock = (*CentralizedRW)(nil)
var _ CtxRWLock = (*CentralizedRW)(nil)

// PhaseFairRW is a phase-fair ticket reader-writer lock: writers take
// FIFO tickets; a writer publishes its presence (and phase parity) in
// the low bits of rin and waits for the readers that arrived before
// it; readers that see a writer present wait only until the writer
// bits CHANGE — i.e. they are admitted at the next phase boundary,
// after at most one writer, regardless of how many writers are queued.
type PhaseFairRW struct {
	_    noCopy
	rin  waitCell     // readers-in << 32 | writer presence bit | writer phase
	rout waitCell     // readers-out << 32
	win  atomic.Int64 // writer ticket dispenser (never waited on)
	_    [56]byte
	wout waitCell // writer tickets served
}

// The writer phase is the writer's ticket modulo 2^31, not just its
// parity: a writer that undoes its passage (TryLock finding readers, a
// cancelled LockCtx) ends its phase without draining anybody, so with a
// one-bit phase the next writer but one could put the same bits back
// while a reader registered under them still waits — the reader would
// miss its boundary, and the writer would count it, a deadlock.  With
// the ticket as the phase the bits cannot recur within 2^31 writer
// passages.
const (
	pfReader = int64(1) << 32 // one reader unit in rin/rout
	pfPres   = int64(1) << 31 // writer-present bit
	pfPhase  = pfPres - 1     // writer phase: ticket mod 2^31
	pfWBits  = pfPres | pfPhase
)

// NewPhaseFairRW returns a ready phase-fair lock.
func NewPhaseFairRW(opts ...Option) *PhaseFairRW {
	l := &PhaseFairRW{}
	s := applyOptions(opts).strategy
	l.rin.setStrategy(s)
	l.rout.setStrategy(s)
	l.wout.setStrategy(s)
	return l
}

// Lock acquires write mode.
func (l *PhaseFairRW) Lock() WToken {
	t := l.win.Add(1) - 1
	l.wout.wait(t) // writers FIFO
	w := pfPres | (t & pfPhase)
	entered := l.rin.add(w) - w // readers that arrived before me
	l.rout.wait(entered &^ pfWBits)
	return WToken{id: w}
}

// Unlock releases write mode.
func (l *PhaseFairRW) Unlock(t WToken) {
	// Clear the writer bits first so waiting readers see the phase
	// change, then admit the next writer; both are wake sites (a
	// parked reader watches rin's low bits, the next writer wout).
	l.rin.addWake(-t.id)
	l.wout.addWake(1)
}

// RLock acquires read mode.
func (l *PhaseFairRW) RLock() RToken {
	w := (l.rin.add(pfReader) - pfReader) & pfWBits
	if w != 0 {
		// A writer holds or awaits the lock: wait for the next phase
		// boundary (the writer bits changing), after which we hold a
		// counted reservation the next writer will wait for.
		l.rin.waitUntil(func(v int64) bool { return v&pfWBits != w })
	}
	return RToken{}
}

// RUnlock releases read mode.
func (l *PhaseFairRW) RUnlock(RToken) { l.rout.addWake(pfReader) }

// TryLock attempts write mode without blocking.  The head-of-queue
// probe (wout == win) plus the ticket CAS stands in for the FIFO
// wait; a reader found inside after the writer bits are up is undone
// by a zero-length writer passage — clearing the bits and advancing
// wout exactly as Unlock would, which is consistent because no
// successor ticket can exist (the CAS admitted only us).
func (l *PhaseFairRW) TryLock() (WToken, bool) {
	t := l.win.Load()
	if l.wout.load() != t || !l.win.CompareAndSwap(t, t+1) {
		return WToken{}, false // writer held/queued, or lost the claim
	}
	w := pfPres | (t & pfPhase)
	entered := l.rin.add(w) - w
	if l.rout.load() != entered&^pfWBits {
		// Readers inside: undo via a zero-length writer passage.
		l.rin.addWake(-w)
		l.wout.addWake(1)
		return WToken{}, false
	}
	return WToken{id: w}, true
}

// TryRLock attempts read mode without blocking.  It registers only
// by a CAS of a writer-free rin, so it never has to retreat: a reader
// registered after a writer's bits is not among the readers that
// writer drains (rout must reach exactly its snapshot of rin), and an
// exit through rout would be miscounted as one of theirs.  The loop
// retries only when another reader's registration moved rin.
func (l *PhaseFairRW) TryRLock() (RToken, bool) {
	for {
		v := l.rin.load()
		if v&pfWBits != 0 {
			return RToken{}, false
		}
		if l.rin.cas(v, v+pfReader) {
			return RToken{}, true
		}
	}
}

// LockCtx acquires write mode.  The ticket fetch&add is the point of
// no return for the FIFO wait — a ticket cannot be returned without
// stranding every later ticket, the classic limitation of ticket
// locks — so cancellation wins before the ticket, or during the
// reader drain at the queue head (undone by a zero-length writer
// passage, as in TryLock), but not in the FIFO queue between them.
func (l *PhaseFairRW) LockCtx(ctx context.Context) (WToken, error) {
	if err := ctx.Err(); err != nil {
		return WToken{}, err
	}
	t := l.win.Add(1) - 1 // ticket: the queue wait is now committed
	l.wout.wait(t)
	w := pfPres | (t & pfPhase)
	entered := l.rin.add(w) - w
	if err := l.rout.waitCtx(ctx, entered&^pfWBits); err != nil {
		l.rin.addWake(-w) // zero-length writer passage, as in TryLock
		l.wout.addWake(1)
		return WToken{}, err
	}
	return WToken{id: w}, nil
}

// RLockCtx acquires read mode.  A reader cancelled at the phase
// boundary takes its registration back out of rin rather than
// exiting through rout: it registered after the writer's bits, so the
// writer's drain does not count it.  The removal is a CAS that
// requires the writer bits it waited on to be still up — while they
// are, no later writer can have counted the registration (a later
// writer's bits differ, see pfPhase).  If they have changed the
// reader is admitted, and the grant wins.
func (l *PhaseFairRW) RLockCtx(ctx context.Context) (RToken, error) {
	w := (l.rin.add(pfReader) - pfReader) & pfWBits
	if w != 0 {
		err := l.rin.waitUntilCtx(ctx, func(v int64) bool { return v&pfWBits != w })
		for err != nil {
			v := l.rin.load()
			if v&pfWBits != w {
				return RToken{}, nil
			}
			if l.rin.cas(v, v-pfReader) {
				return RToken{}, err
			}
		}
	}
	return RToken{}, nil
}

var _ RWLock = (*PhaseFairRW)(nil)
var _ TryRWLock = (*PhaseFairRW)(nil)
var _ CtxRWLock = (*PhaseFairRW)(nil)

// TaskFairRW is a task-fair ticket reader-writer lock in the style of
// Krieger, Stumm, Unrau & Hanna (ICPP 1993, the paper's [25]):
// readers and writers are served in strict arrival order and
// consecutive readers share the CS.  Strong fairness, but it does NOT
// satisfy concurrent entering: a reader stalled at the queue head
// blocks every later reader even when no writer exists — the defect
// the paper's algorithms avoid (see the task-fair tests in
// internal/core for the directed counterexample).
type TaskFairRW struct {
	_       noCopy
	tail    atomic.Int64 // ticket dispenser (never waited on)
	_       [56]byte
	serving waitCell
	readers waitCell
}

// NewTaskFairRW returns a ready task-fair lock.
func NewTaskFairRW(opts ...Option) *TaskFairRW {
	l := &TaskFairRW{}
	s := applyOptions(opts).strategy
	l.serving.setStrategy(s)
	l.readers.setStrategy(s)
	return l
}

// Lock acquires write mode.
func (l *TaskFairRW) Lock() WToken {
	t := l.tail.Add(1) - 1
	l.serving.wait(t)
	l.readers.wait(0)
	return WToken{}
}

// Unlock releases write mode, handing the queue head onward.
func (l *TaskFairRW) Unlock(WToken) { l.serving.addWake(1) }

// RLock acquires read mode.
func (l *TaskFairRW) RLock() RToken {
	t := l.tail.Add(1) - 1
	l.serving.wait(t)
	l.readers.add(1) // register before releasing the head
	l.serving.addWake(1)
	return RToken{}
}

// RUnlock releases read mode (waking a writer draining readers).
func (l *TaskFairRW) RUnlock(RToken) { l.readers.addWake(-1) }

// TryLock attempts write mode without blocking: it claims a ticket
// only when the queue is empty at the head (serving == tail) AND no
// reader shares the CS.  Both Lock waits are then already satisfied —
// serving is ours by the CAS, and no reader can register without a
// later ticket, which queues behind us.
func (l *TaskFairRW) TryLock() (WToken, bool) {
	t := l.tail.Load()
	if l.serving.load() != t || l.readers.load() != 0 {
		return WToken{}, false
	}
	if !l.tail.CompareAndSwap(t, t+1) {
		return WToken{}, false
	}
	return WToken{}, true
}

// TryRLock attempts read mode without blocking: the same
// empty-at-head claim (readers inside are fine — they share), then
// the ordinary register-and-release-the-head tail of RLock.
func (l *TaskFairRW) TryRLock() (RToken, bool) {
	t := l.tail.Load()
	if l.serving.load() != t || !l.tail.CompareAndSwap(t, t+1) {
		return RToken{}, false
	}
	l.readers.add(1)
	l.serving.addWake(1)
	return RToken{}, true
}

// LockCtx acquires write mode; the ticket fetch&add is the point of
// no return — strict arrival order means an abandoned ticket would
// strand every later arrival, reader or writer, so cancellation wins
// only before the ticket.  (The task-fair queue is the least
// abortable discipline here; prefer MWSF's MCS arbitration when
// deadline writers matter.)
func (l *TaskFairRW) LockCtx(ctx context.Context) (WToken, error) {
	if err := ctx.Err(); err != nil {
		return WToken{}, err
	}
	return l.Lock(), nil // ticket = point of no return
}

// RLockCtx acquires read mode; the same ticket commitment as LockCtx
// applies — strict task-fairness makes a queued reader unabortable.
func (l *TaskFairRW) RLockCtx(ctx context.Context) (RToken, error) {
	if err := ctx.Err(); err != nil {
		return RToken{}, err
	}
	return l.RLock(), nil // ticket = point of no return
}

var _ RWLock = (*TaskFairRW)(nil)
var _ TryRWLock = (*TaskFairRW)(nil)
var _ CtxRWLock = (*TaskFairRW)(nil)

// RWMutexLock adapts sync.RWMutex to the package interface so the
// standard library participates in the same benchmarks and tests.
// Note sync.RWMutex's own discipline: writers block new readers
// (roughly writer-preference for admission, FIFO via the mutex), and
// waiters always park in the runtime — it is the all-park point of
// comparison for the WaitStrategy experiments.
type RWMutexLock struct {
	mu sync.RWMutex
}

// NewRWMutexLock returns a ready adapter.
func NewRWMutexLock() *RWMutexLock { return &RWMutexLock{} }

// Lock acquires write mode.
func (l *RWMutexLock) Lock() WToken {
	l.mu.Lock()
	return WToken{}
}

// Unlock releases write mode.
func (l *RWMutexLock) Unlock(WToken) { l.mu.Unlock() }

// RLock acquires read mode.
func (l *RWMutexLock) RLock() RToken {
	l.mu.RLock()
	return RToken{}
}

// RUnlock releases read mode.
func (l *RWMutexLock) RUnlock(RToken) { l.mu.RUnlock() }

// TryLock attempts write mode without blocking (sync.RWMutex.TryLock).
func (l *RWMutexLock) TryLock() (WToken, bool) {
	return WToken{}, l.mu.TryLock()
}

// TryRLock attempts read mode without blocking
// (sync.RWMutex.TryRLock).
func (l *RWMutexLock) TryRLock() (RToken, bool) {
	return RToken{}, l.mu.TryRLock()
}

// LockCtx acquires write mode by polling TryLock until it succeeds or
// ctx is cancelled.  sync.RWMutex has no cancellable blocking wait,
// so this adapter trades the runtime's queue fairness for
// cancellability: a poller can be overtaken indefinitely by direct
// Lock callers.  It exists so the standard library participates in
// the deadline benchmarks; production deadline writers should use the
// package's own locks, whose queues abort cleanly.
func (l *RWMutexLock) LockCtx(ctx context.Context) (WToken, error) {
	for {
		if l.mu.TryLock() {
			return WToken{}, nil
		}
		if err := ctx.Err(); err != nil {
			return WToken{}, err
		}
		runtime.Gosched()
	}
}

// RLockCtx acquires read mode by polling TryRLock; the same fairness
// caveat as LockCtx applies.
func (l *RWMutexLock) RLockCtx(ctx context.Context) (RToken, error) {
	for {
		if l.mu.TryRLock() {
			return RToken{}, nil
		}
		if err := ctx.Err(); err != nil {
			return RToken{}, err
		}
		runtime.Gosched()
	}
}

var _ RWLock = (*RWMutexLock)(nil)
var _ TryRWLock = (*RWMutexLock)(nil)
var _ CtxRWLock = (*RWMutexLock)(nil)
