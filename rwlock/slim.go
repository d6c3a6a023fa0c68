package rwlock

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the footprint-slim lock variants for
// 10^5-10^6-instance deployments (a sharded map's stripe grid, one
// lock per stripe).  The full Bravo and Epoch wrappers spend their
// per-instance bytes on machinery that only pays off when the
// INSTANCE itself is contended: a padded bias word, a padded re-arm
// budget, an inner Bhatt & Jayanti lock with its gates and writer
// arbitration (~2.5 KB per Bravo(MWSF) instance on a small box).  At
// a million instances that is gigabytes for machinery that per-stripe
// traffic — contention spread over 10^6 locks — never exercises.
//
// SlimBravo and SlimEpoch keep the two reader fast-path PROTOCOLS
// (BRAVO's claim/recheck against a bias, Epoch's publish/recheck
// against an epoch parity) but shrink everything else:
//
//   - All reader visibility lives in a shared ReaderTable arena
//     (WithSharedReaderTable, DefaultReaderTable by default) — the
//     BRAVO paper's global table — so the per-instance reader state
//     is an owner id.
//   - The slow path is a single packed state word (reader count,
//     writer bit, bias/epoch), i.e. the centralized reader-writer
//     protocol the paper's baselines use, NOT the constant-RMR
//     Bhatt & Jayanti machinery: slow waiters re-read the shared
//     state word (Gosched-yield loops, SpinYield semantics).  That
//     is the deliberate trade — O(1)-RMR waiting needs per-waiter
//     cells the footprint budget cannot carry, and with instances ≫
//     cores the expected per-instance queue length is ~0, so there
//     is no queue to manage.
//   - The whole lock is ONE 16-byte allocation: the state word plus
//     a packed reference (arena registry index in the high 8 bits,
//     owner id in the low 24 — see slimRef).
//
// Fairness: neither variant orders its writers (no FCFS, no
// starvation-freedom under sustained single-instance contention).
// They are serving-tier locks: correct always, fair enough when
// instances ≫ goroutines, and 100x+ smaller.  For a hot single lock,
// use the full wrappers.
//
// Owner ids are 24-bit truncations of the arena's id sequence, so
// after ~16.7M lock constructions over one table ids recycle.  An id
// collision is a PERFORMANCE hazard only, never a correctness one:
// a drain that waits on a same-id slot claimed by another lock's
// reader waits out one bounded read passage spuriously; mutual
// exclusion always comes from the lock's own state word plus the
// claim/recheck ordering.
//
// Observability: the Slim locks do NOT implement the WithStats seam —
// they take no options, and a per-instance stats pointer would double
// the 16-byte footprint the whole design exists to protect.  Observe
// a Slim grid one level up, through rwmap.Map.Heatmap, which reads
// per-stripe entry counts without instrumenting the locks.

// slimFastSide tags an RToken issued by a Slim lock's arena fast
// path: -1 is Bravo's, -2 is Epoch's, so -3 is unambiguous.
const slimFastSide = int32(-3)

// slimIDMask extracts the 24-bit owner id from a packed slim ref (and
// bounds the id bits ReaderTable.assignID keeps nonzero).
const slimIDMask = 1<<24 - 1

// slimMaxTables bounds the arena registry: a slim lock addresses its
// table through an 8-bit registry index instead of an 8-byte pointer
// (half the lock's total size).  Tables are process-wide singletons
// (usually just DefaultReaderTable), so 256 is generous.
const slimMaxTables = 256

var (
	slimTableMu sync.Mutex
	slimTableN  atomic.Int32
	slimTables  [slimMaxTables]atomic.Pointer[ReaderTable]
)

// slimRegister returns t's index in the arena registry, assigning one
// on first use.  Constructor-path only; lookups on the lock's hot
// paths are one bounds-checked atomic load (slimTable).
func slimRegister(t *ReaderTable) uint32 {
	n := int(slimTableN.Load())
	for i := 0; i < n; i++ {
		if slimTables[i].Load() == t {
			return uint32(i)
		}
	}
	slimTableMu.Lock()
	defer slimTableMu.Unlock()
	n = int(slimTableN.Load())
	for i := 0; i < n; i++ {
		if slimTables[i].Load() == t {
			return uint32(i)
		}
	}
	if n >= slimMaxTables {
		panic("rwlock: Slim locks constructed over more than 256 distinct ReaderTables; share tables (see DefaultReaderTable)")
	}
	slimTables[n].Store(t)
	slimTableN.Store(int32(n + 1))
	return uint32(n)
}

// slimRef packs a lock's arena identity into one word: registry index
// in the high 8 bits, 24-bit owner id below.
func slimRef(t *ReaderTable) uint32 {
	idx := slimRegister(t)
	id := uint32(t.assignID()) & slimIDMask
	return idx<<24 | id
}

func slimTable(ref uint32) *ReaderTable { return slimTables[ref>>24].Load() }
func slimOwner(ref uint32) int64        { return int64(ref & slimIDMask) }

// slimResolve applies the shared-table option with the package
// default, the common constructor head of both Slim variants.
func slimResolve(opts []Option) uint32 {
	o := applyOptions(opts)
	t := o.sharedTable
	if t == nil {
		t = DefaultReaderTable()
	}
	return slimRef(t)
}

// SlimBravo state-word layout.  Readers inside through the slow path
// are counted in rc; the re-arm countdown occupies its own field so
// the reader that spends the budget arms the bias in the same CAS
// that registers it (full Bravo needs a separate padded word for
// this; here the whole protocol shares one line by design — the
// footprint trade again).
const (
	slimWH     = int64(1) << 0 // writer holds
	slimBias   = int64(1) << 1 // readers may use the arena fast path
	slimRC     = int64(1) << 2 // slow-reader count unit (32 bits)
	slimRCMask = (int64(1)<<32 - 1) << 2
	slimCD     = int64(1) << 34 // re-arm countdown unit (16 bits)
	slimCDMask = (int64(1)<<16 - 1) << 34
	slimCDMax  = int64(1)<<16 - 1
)

// SlimBravo is the BRAVO protocol at minimum footprint: a 16-byte
// lock (one packed state word + one packed arena reference) whose
// fast-path readers publish themselves in a shared ReaderTable.  See
// the file comment for what is kept and what is traded against the
// full Bravo wrapper.  Construct with NewSlimBravo; the zero value is
// not ready (the bias starts armed).
type SlimBravo struct {
	state atomic.Int64
	ref   uint32
}

// NewSlimBravo returns a read-biased SlimBravo.  The only options
// honored are WithSharedReaderTable (default: DefaultReaderTable();
// the table also supplies the wait strategy for revocation drains —
// every other wait is a yield loop, see the file comment).
func NewSlimBravo(opts ...Option) *SlimBravo {
	l := &SlimBravo{ref: slimResolve(opts)}
	l.state.Store(slimBias)
	return l
}

// RLock acquires read mode: the arena fast path while the bias is
// armed, the state-word reader count otherwise.
func (l *SlimBravo) RLock() RToken {
	tbl := slimTable(l.ref)
	id := slimOwner(l.ref)
	for {
		s := l.state.Load()
		if s&slimBias != 0 {
			if idx, ok := tbl.tryClaim(id); ok {
				// Recheck AFTER publishing, the BRAVO ordering: either
				// this load sees a revoking writer's clear and we back
				// out, or our claim is visible to that writer's drain.
				if l.state.Load()&slimBias != 0 {
					return RToken{side: slimFastSide, id: idx}
				}
				tbl.release(idx)
				continue
			}
			// Arena contended: fall through to the slow path.
		}
		if s&slimWH != 0 {
			runtime.Gosched()
			continue
		}
		ns := s + slimRC
		if s&slimBias == 0 && s&slimCDMask != 0 {
			// Count down the re-arm throttle; the passage that spends
			// it arms the bias in the same CAS.
			ns -= slimCD
			if ns&slimCDMask == 0 {
				ns |= slimBias
			}
		}
		if l.state.CompareAndSwap(s, ns) {
			return RToken{}
		}
	}
}

// RUnlock releases read mode; it must receive the token returned by
// the matching RLock.
func (l *SlimBravo) RUnlock(t RToken) {
	if t.side == slimFastSide {
		slimTable(l.ref).release(t.id)
		return
	}
	l.state.Add(-slimRC)
}

// Lock acquires write mode: take the writer bit and clear the bias in
// one CAS, then wait out the registered slow readers and drain this
// lock's arena claims.  The CAS is the commitment point.
func (l *SlimBravo) Lock() WToken {
	for {
		s := l.state.Load()
		if s&slimWH != 0 {
			runtime.Gosched()
			continue
		}
		if l.state.CompareAndSwap(s, (s&^slimBias)|slimWH) {
			l.writerSettle(s&slimBias != 0)
			return WToken{}
		}
	}
}

// writerSettle finishes a write acquisition after the commitment CAS:
// slow readers drain from rc, and if the bias was armed, the arena is
// drained and the re-arm budget set (sized as the full Bravo sizes
// it: the scan paid plus the busy slots waited on).  Runs with the
// writer bit held, so no concurrent writer and no bias re-arm can
// interleave.
func (l *SlimBravo) writerSettle(hadBias bool) {
	for l.state.Load()&slimRCMask != 0 {
		runtime.Gosched()
	}
	if !hadBias {
		return
	}
	tbl := slimTable(l.ref)
	busy := tbl.drainFor(slimOwner(l.ref))
	budget := int64(1 + tbl.Slots()/8 + bravoBusyFactor*busy)
	if budget > slimCDMax {
		budget = slimCDMax
	}
	for {
		s := l.state.Load()
		if l.state.CompareAndSwap(s, (s&^slimCDMask)|budget<<34) {
			return
		}
	}
}

// Unlock releases write mode.
func (l *SlimBravo) Unlock(WToken) { l.state.Add(-slimWH) }

// Write runs cs in write mode (the closure path; see FuncWriter).
func (l *SlimBravo) Write(cs func()) {
	t := l.Lock()
	defer l.Unlock(t)
	cs()
}

// TryLock attempts write mode without blocking: it commits only when
// the lock is writer-free with no registered slow readers, and — as
// the full Bravo does — on an armed bias it SCANS the arena instead
// of draining it, restoring the bias and reporting busy if any of
// this lock's claims are live.
func (l *SlimBravo) TryLock() (WToken, bool) {
	s := l.state.Load()
	if s&slimWH != 0 || s&slimRCMask != 0 {
		return WToken{}, false
	}
	if !l.state.CompareAndSwap(s, (s&^slimBias)|slimWH) {
		return WToken{}, false
	}
	if s&slimBias != 0 {
		tbl := slimTable(l.ref)
		if !tbl.idleFor(slimOwner(l.ref)) {
			// Restore bias and release in one add: we hold the writer
			// bit, so nothing else can touch either bit concurrently.
			l.state.Add(slimBias - slimWH)
			return WToken{}, false
		}
		budget := int64(1 + tbl.Slots()/8)
		for {
			cur := l.state.Load()
			if l.state.CompareAndSwap(cur, (cur&^slimCDMask)|budget<<34) {
				break
			}
		}
	}
	return WToken{}, true
}

// TryRLock attempts read mode without blocking: one arena claim
// attempt while biased, else one registration CAS.
func (l *SlimBravo) TryRLock() (RToken, bool) {
	tbl := slimTable(l.ref)
	s := l.state.Load()
	if s&slimBias != 0 {
		if idx, ok := tbl.tryClaim(slimOwner(l.ref)); ok {
			if l.state.Load()&slimBias != 0 {
				return RToken{side: slimFastSide, id: idx}, true
			}
			tbl.release(idx)
		}
		s = l.state.Load()
	}
	if s&slimWH != 0 {
		return RToken{}, false
	}
	ns := s + slimRC
	if s&slimBias == 0 && s&slimCDMask != 0 {
		ns -= slimCD
		if ns&slimCDMask == 0 {
			ns |= slimBias
		}
	}
	if l.state.CompareAndSwap(s, ns) {
		return RToken{}, true
	}
	return RToken{}, false
}

// LockCtx acquires write mode, aborting with ctx.Err() while waiting
// for the writer bit; the commitment CAS ends cancellation — the
// reader drains then run to completion, bounded by the passages of
// the readers already inside.
func (l *SlimBravo) LockCtx(ctx context.Context) (WToken, error) {
	done := ctx.Done()
	for {
		s := l.state.Load()
		if s&slimWH != 0 {
			if done != nil {
				select {
				case <-done:
					return WToken{}, ctx.Err()
				default:
				}
			}
			runtime.Gosched()
			continue
		}
		if l.state.CompareAndSwap(s, (s&^slimBias)|slimWH) {
			l.writerSettle(s&slimBias != 0)
			return WToken{}, nil
		}
	}
}

// RLockCtx acquires read mode, aborting with ctx.Err() while waiting
// out a writer; the fast path never waits, so ctx plays no part in it.
func (l *SlimBravo) RLockCtx(ctx context.Context) (RToken, error) {
	tbl := slimTable(l.ref)
	id := slimOwner(l.ref)
	done := ctx.Done()
	for {
		s := l.state.Load()
		if s&slimBias != 0 {
			if idx, ok := tbl.tryClaim(id); ok {
				if l.state.Load()&slimBias != 0 {
					return RToken{side: slimFastSide, id: idx}, nil
				}
				tbl.release(idx)
				continue
			}
		}
		if s&slimWH != 0 {
			if done != nil {
				select {
				case <-done:
					return RToken{}, ctx.Err()
				default:
				}
			}
			runtime.Gosched()
			continue
		}
		ns := s + slimRC
		if s&slimBias == 0 && s&slimCDMask != 0 {
			ns -= slimCD
			if ns&slimCDMask == 0 {
				ns |= slimBias
			}
		}
		if l.state.CompareAndSwap(s, ns) {
			return RToken{}, nil
		}
	}
}

// WriteCtx runs cs in write mode unless ctx is cancelled first;
// LockCtx's commitment point applies.
func (l *SlimBravo) WriteCtx(ctx context.Context, cs func()) error {
	t, err := l.LockCtx(ctx)
	if err != nil {
		return err
	}
	defer l.Unlock(t)
	cs()
	return nil
}

// ReadBiased reports whether the arena fast path is currently armed
// (racy snapshot, for tests and metrics).
func (l *SlimBravo) ReadBiased() bool { return l.state.Load()&slimBias != 0 }

// SlimEpoch state-word layout: slow-reader count in the low 20 bits,
// the epoch counter above it, so the counter's lowest bit doubles as
// the writer-present flag (odd = writer inside, exactly the full
// Epoch's parity convention).
const (
	slimERCMask  = int64(1)<<20 - 1
	slimEpochOne = int64(1) << 20
)

// SlimEpoch is the epoch-parity protocol at minimum footprint: a
// 16-byte lock whose fast-path readers claim shared-arena slots and
// recheck the packed epoch, and whose writers advance the epoch to
// odd and wait out a grace period.  Unlike the full Epoch wrapper
// there is no deferred version reclamation (no Retire) and no batch
// amortization — every write pays its own grace scan.  See the file
// comment for the full trade.  Construct with NewSlimEpoch.
type SlimEpoch struct {
	state atomic.Int64
	ref   uint32
}

// NewSlimEpoch returns a SlimEpoch.  The only option honored is
// WithSharedReaderTable (default: DefaultReaderTable()).
func NewSlimEpoch(opts ...Option) *SlimEpoch {
	return &SlimEpoch{ref: slimResolve(opts)}
}

// RLock acquires read mode: claim an arena slot and recheck the epoch
// while it is even, registering in the packed reader count when the
// arena is contended, yielding while a writer (odd epoch) is inside.
func (l *SlimEpoch) RLock() RToken {
	tbl := slimTable(l.ref)
	id := slimOwner(l.ref)
	for {
		s := l.state.Load()
		if s&slimEpochOne != 0 {
			runtime.Gosched()
			continue
		}
		g := s &^ slimERCMask
		if idx, ok := tbl.tryClaim(id); ok {
			// Recheck AFTER publishing: if the epoch still reads g, our
			// claim precedes any advancing writer's drain (seq-cst
			// Dekker), which will wait us out; otherwise back out.
			if l.state.Load()&^slimERCMask == g {
				return RToken{side: slimFastSide, id: idx}
			}
			tbl.release(idx) // wake: a grace scan may be parked here
			continue
		}
		if l.state.CompareAndSwap(s, s+1) {
			return RToken{}
		}
	}
}

// RUnlock releases read mode; it must receive the token returned by
// the matching RLock.
func (l *SlimEpoch) RUnlock(t RToken) {
	if t.side == slimFastSide {
		slimTable(l.ref).release(t.id)
		return
	}
	l.state.Add(-1)
}

// Lock acquires write mode: advance the epoch to odd (the commitment
// point — fast entries now recheck-fail), then wait out registered
// readers and drain this lock's arena claims (the grace period).
func (l *SlimEpoch) Lock() WToken {
	for {
		s := l.state.Load()
		if s&slimEpochOne != 0 {
			runtime.Gosched()
			continue
		}
		if l.state.CompareAndSwap(s, s+slimEpochOne) {
			for l.state.Load()&slimERCMask != 0 {
				runtime.Gosched()
			}
			slimTable(l.ref).drainFor(slimOwner(l.ref))
			return WToken{}
		}
	}
}

// Unlock releases write mode by advancing the epoch back to even — a
// fresh value, so stamped rechecks against any older epoch fail.
func (l *SlimEpoch) Unlock(WToken) { l.state.Add(slimEpochOne) }

// Write runs cs in write mode (the closure path; see FuncWriter).
func (l *SlimEpoch) Write(cs func()) {
	t := l.Lock()
	defer l.Unlock(t)
	cs()
}

// TryLock attempts write mode without blocking: it commits the epoch
// advance only when no writer is in and no reader is registered, and
// SCANS the arena instead of draining it — on any live claim of this
// lock it advances again (reopening the fast path at a fresh even
// epoch; the monotonic counter makes the double advance safe) and
// reports busy, so a fast-path reader is never waited on.
func (l *SlimEpoch) TryLock() (WToken, bool) {
	s := l.state.Load()
	if s&slimEpochOne != 0 || s&slimERCMask != 0 {
		return WToken{}, false
	}
	if !l.state.CompareAndSwap(s, s+slimEpochOne) {
		return WToken{}, false
	}
	if !slimTable(l.ref).idleFor(slimOwner(l.ref)) {
		l.state.Add(slimEpochOne) // reopen without a grace wait
		return WToken{}, false
	}
	return WToken{}, true
}

// TryRLock attempts read mode without blocking: one arena claim
// attempt, else one registration CAS while the epoch is even.
func (l *SlimEpoch) TryRLock() (RToken, bool) {
	tbl := slimTable(l.ref)
	s := l.state.Load()
	if s&slimEpochOne != 0 {
		return RToken{}, false
	}
	g := s &^ slimERCMask
	if idx, ok := tbl.tryClaim(slimOwner(l.ref)); ok {
		if l.state.Load()&^slimERCMask == g {
			return RToken{side: slimFastSide, id: idx}, true
		}
		tbl.release(idx)
		return RToken{}, false
	}
	if l.state.CompareAndSwap(s, s+1) {
		return RToken{}, true
	}
	return RToken{}, false
}

// LockCtx acquires write mode, aborting with ctx.Err() while waiting
// for the epoch to turn even; the advance CAS is the commitment point
// — the grace wait runs to completion past it.
func (l *SlimEpoch) LockCtx(ctx context.Context) (WToken, error) {
	done := ctx.Done()
	for {
		s := l.state.Load()
		if s&slimEpochOne != 0 {
			if done != nil {
				select {
				case <-done:
					return WToken{}, ctx.Err()
				default:
				}
			}
			runtime.Gosched()
			continue
		}
		if l.state.CompareAndSwap(s, s+slimEpochOne) {
			for l.state.Load()&slimERCMask != 0 {
				runtime.Gosched()
			}
			slimTable(l.ref).drainFor(slimOwner(l.ref))
			return WToken{}, nil
		}
	}
}

// RLockCtx acquires read mode, aborting with ctx.Err() while a writer
// holds the epoch odd; the fast path never waits.
func (l *SlimEpoch) RLockCtx(ctx context.Context) (RToken, error) {
	tbl := slimTable(l.ref)
	id := slimOwner(l.ref)
	done := ctx.Done()
	for {
		s := l.state.Load()
		if s&slimEpochOne != 0 {
			if done != nil {
				select {
				case <-done:
					return RToken{}, ctx.Err()
				default:
				}
			}
			runtime.Gosched()
			continue
		}
		g := s &^ slimERCMask
		if idx, ok := tbl.tryClaim(id); ok {
			if l.state.Load()&^slimERCMask == g {
				return RToken{side: slimFastSide, id: idx}, nil
			}
			tbl.release(idx)
			continue
		}
		if l.state.CompareAndSwap(s, s+1) {
			return RToken{}, nil
		}
	}
}

// WriteCtx runs cs in write mode unless ctx is cancelled first;
// LockCtx's commitment point applies.
func (l *SlimEpoch) WriteCtx(ctx context.Context, cs func()) error {
	t, err := l.LockCtx(ctx)
	if err != nil {
		return err
	}
	defer l.Unlock(t)
	cs()
	return nil
}

var _ RWLock = (*SlimBravo)(nil)
var _ TryRWLock = (*SlimBravo)(nil)
var _ CtxRWLock = (*SlimBravo)(nil)
var _ FuncWriter = (*SlimBravo)(nil)
var _ CtxFuncWriter = (*SlimBravo)(nil)
var _ RWLock = (*SlimEpoch)(nil)
var _ TryRWLock = (*SlimEpoch)(nil)
var _ CtxRWLock = (*SlimEpoch)(nil)
var _ FuncWriter = (*SlimEpoch)(nil)
var _ CtxFuncWriter = (*SlimEpoch)(nil)
