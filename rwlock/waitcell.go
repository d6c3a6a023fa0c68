package rwlock

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the package's waiting layer.  Every wait in the paper's
// algorithms is "read one word until it holds the value I need"; every
// signal is one write of that word.  waitCell packages that pair — one
// atomic word, a Wait side and a Set+Wake side — behind a pluggable
// WaitStrategy, so the same algorithm text can either busy-wait (the
// paper's cost model) or park the goroutine (the production regime
// where goroutines outnumber cores).

// WaitStrategy selects how goroutines wait on the package's locks.
type WaitStrategy int32

const (
	// SpinYield re-reads the wait word in a loop: on a lock built at
	// GOMAXPROCS > 1, a bounded tight spin first (a wake from another
	// P usually lands inside it, with no scheduler round trip), then
	// one runtime.Gosched per re-check.  This is the paper's busy-wait
	// realized cooperatively: each re-check is one read of one locally
	// cached word, so a passage stays O(1) RMRs, and the goroutine
	// never blocks.  It is the default, and the right choice when
	// goroutines do not exceed GOMAXPROCS: the wake-to-run latency is
	// one cache-line transfer.
	SpinYield WaitStrategy = iota

	// SpinThenPark spins briefly (bounded local re-checks, then a few
	// scheduler yields), and then parks the goroutine on a per-cell
	// semaphore until the signalling side wakes it.  Under
	// oversubscription (goroutines ≫ GOMAXPROCS) this is dramatically
	// faster: a spinning waiter burns whole scheduler quanta that the
	// lock holder needs to make progress, while a parked waiter costs
	// nothing until the handoff.  Wake-to-run latency is higher than
	// SpinYield's, so lightly loaded low-latency use favors SpinYield.
	//
	// Parking does not change the RMR accounting: the waiter performs
	// O(1) RMRs before parking, the sleep itself generates no memory
	// traffic, and the signaller's wake is one store plus (only when a
	// waiter is actually parked) one semaphore post.
	SpinThenPark
)

// String names the strategy the way the lock registry does ("spin",
// "park").
func (s WaitStrategy) String() string {
	switch s {
	case SpinYield:
		return "spin"
	case SpinThenPark:
		return "park"
	default:
		return "unknown"
	}
}

// Option configures a lock constructor.
type Option func(*options)

type options struct {
	strategy WaitStrategy
	// boundedWriters > 0 selects the bounded Anderson-array writer
	// arbitration with that capacity; 0 (the default) selects the
	// unbounded MCS queue.  See WithBoundedWriters in mcs.go.
	boundedWriters int
	// combining wraps the selected writer arbitration in the
	// flat-combining layer.  See WithCombiningWriters in combiner.go.
	combining bool
	// epochReclaimEvery is the epoch wrapper's reclaim cadence: sweep
	// retired versions every k-th batch boundary (0/1 = every
	// boundary).  See WithEpochReclaimEvery in epoch.go.
	epochReclaimEvery int
	// sharedTable, when non-nil, puts the constructed lock's reader
	// fast path on a shared visible-readers arena instead of private
	// per-lock state.  See WithSharedReaderTable in readerslots.go
	// and the footprint discussion there.
	sharedTable *ReaderTable
	// stats, when non-nil, is the lock's observability counter block.
	// See WithStats in stats.go; every instrumented site nil-checks
	// this pointer, so the default (nil) path is unchanged.
	stats *LockStats
}

// WithSharedReaderTable makes the constructed lock publish its
// fast-path readers in tbl — a ReaderTable arena shared by any number
// of locks — instead of allocating private per-lock reader state: the
// BRAVO paper's global-table design.  The per-lock footprint of the
// reader fast path drops from O(GOMAXPROCS) cache lines to one
// integer owner id, which is what makes 10^5-10^6 lock instances (a
// sharded map's stripe grid) affordable.  The trades:
//
//   - On Bravo, a revoking writer scans the WHOLE shared arena (it
//     waits only on its own lock's readers, but it reads every slot),
//     so the scan cost tracks the arena size, not the lock's own
//     reader count.
//   - On Epoch, fast-path readers claim an arena slot with a CAS
//     instead of stamping a leased private slot with a plain store —
//     the shared deployment gives up the zero-RMW read passage and
//     costs exactly what Bravo's fast path does.  Grace waits scan
//     the arena like Bravo's revocations.
//
// Pass DefaultReaderTable() unless you need your own sizing or wait
// strategy.  The option is ignored by constructors without a reader
// fast path (the inner-lock constructors), mirroring the other
// layer-specific options.  tbl must not be nil.
func WithSharedReaderTable(tbl *ReaderTable) Option {
	if tbl == nil {
		panic("rwlock: WithSharedReaderTable needs a non-nil table")
	}
	return func(o *options) { o.sharedTable = tbl }
}

// WithWaitStrategy selects the waiting layer's behavior for every wait
// inside the constructed lock.  The default is SpinYield.
func WithWaitStrategy(s WaitStrategy) Option {
	return func(o *options) { o.strategy = s }
}

// applyOptions keeps the zero-options path escape-free: passing &o to
// the opaque option funcs forces o to the heap, a 48-byte charge that
// would quadruple the footprint of every optionless Slim construction
// (the 10^6-instance grids build their locks exactly that way).  The
// split keeps the escape confined to callers that actually pass
// options.
func applyOptions(opts []Option) options {
	if len(opts) == 0 {
		return options{}
	}
	return applyOptionsAll(opts)
}

func applyOptionsAll(opts []Option) options {
	var o options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// Bounds of SpinThenPark's pre-park phase: parkSpin tight re-checks
// (the word is locally cached, so this costs no memory traffic), then
// parkYield scheduler yields, then the semaphore.  The numbers are
// small on purpose: when the machine is NOT oversubscribed the wake
// usually lands inside the tight phase, and when it IS, yielding more
// only delays the inevitable park.
//
// yieldSpin bounds SpinYield's tight phase before its per-re-check
// yields.  It applies only to cells set up at GOMAXPROCS > 1: with one
// P the signaller cannot run while the waiter spins.
const (
	parkSpin  = 128
	parkYield = 4
	yieldSpin = 256
)

// cellFalse/cellTrue encode the paper's boolean shared variables in a
// cell's int64 word.
const (
	cellFalse int64 = 0
	cellTrue  int64 = 1
)

// waitCell is one shared word that some processes wait on and other
// processes signal.  The hot word sits alone on its cache line (the
// layout the RMR argument needs: a waiter's re-read invalidates
// nothing); the parking state lives on the lines after it and is
// touched only when a waiter actually parks, or by the signaller's
// single parked-count probe.
//
// The zero value is a ready-to-use SpinYield cell holding 0, without
// the spin phase; call setStrategy before first use to select the
// strategy and its spin bound.
type waitCell struct {
	v atomic.Int64
	_ [56]byte

	// Cold parking state.  parked counts goroutines that are committed
	// to sleeping on cond (they increment it under mu before the final
	// re-check).  A signaller stores the word FIRST and probes parked
	// SECOND; a waiter increments parked FIRST and re-checks the word
	// SECOND.  sync/atomic is sequentially consistent, so one of the
	// two always sees the other — the standard futex handshake — and a
	// wake cannot be lost.
	park   bool
	_      [3]byte
	parked atomic.Int32
	mu     sync.Mutex
	cond   *sync.Cond
	// stats, when non-nil, receives Parks/Unparks counts from the
	// park slow path (see WithStats).  Cold by construction: it is
	// only touched after the spin and yield phases have given up.
	stats *LockStats
	// spin is the number of tight re-checks a wait makes after its
	// first miss, before it yields: parkSpin under SpinThenPark,
	// yieldSpin under SpinYield at GOMAXPROCS > 1, else 0.
	spin int32
	_    [28]byte
}

// setStrategy selects the cell's wait behavior, fixing the spin phase
// from GOMAXPROCS now so the wait path never reads it.  Not safe to
// call concurrently with waits; lock constructors call it before the
// lock escapes.
func (c *waitCell) setStrategy(s WaitStrategy) {
	c.park = s == SpinThenPark
	switch {
	case c.park:
		c.spin = parkSpin
	case runtime.GOMAXPROCS(0) > 1:
		c.spin = yieldSpin
	default:
		c.spin = 0
	}
}

// setStats installs the owning lock's counter block on the cell so
// actual goroutine parks are counted.  Like setStrategy, it must be
// called before the cell is waited on.
func (c *waitCell) setStats(st *LockStats) { c.stats = st }

// load returns the cell's current value.
func (c *waitCell) load() int64 { return c.v.Load() }

// store writes v without waking parked waiters.  Use it only for
// writes that cannot satisfy any wait (closing a gate, a waiter
// resetting its own permit); a store that a waiter may be waiting for
// must go through storeWake.
func (c *waitCell) store(v int64) { c.v.Store(v) }

// add atomically adds delta without waking parked waiters, returning
// the new value.  Same caveat as store.
func (c *waitCell) add(delta int64) int64 { return c.v.Add(delta) }

// cas is a compare-and-swap on the cell's word (no wake: the package's
// CAS sites only ever make waited-for conditions false).
func (c *waitCell) cas(old, new int64) bool { return c.v.CompareAndSwap(old, new) }

// storeWake writes v and wakes parked waiters: the signal side of the
// cell.
func (c *waitCell) storeWake(v int64) {
	c.v.Store(v)
	c.wakeAll()
}

// addWake atomically adds delta, wakes parked waiters, and returns the
// new value.
func (c *waitCell) addWake(delta int64) int64 {
	nv := c.v.Add(delta)
	c.wakeAll()
	return nv
}

// wakeAll wakes every parked waiter so each re-checks its condition.
// When nobody is parked (always, under SpinYield) it is one relaxed
// load of the cold line.
func (c *waitCell) wakeAll() {
	if c.parked.Load() == 0 {
		return
	}
	c.mu.Lock()
	if c.cond != nil {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// wait blocks until the cell's word equals want.
func (c *waitCell) wait(want int64) {
	if c.v.Load() == want {
		return
	}
	for i := c.spin; i > 0; i-- {
		if c.v.Load() == want {
			return
		}
	}
	if !c.park {
		for c.v.Load() != want {
			runtime.Gosched()
		}
		return
	}
	for i := 0; i < parkYield; i++ {
		runtime.Gosched()
		if c.v.Load() == want {
			return
		}
	}
	c.parkUntil(func(v int64) bool { return v == want })
}

// waitUntil blocks until pred holds for the cell's word.  pred must be
// monotone in the signals that wake this waiter (once satisfied it may
// only be falsified by this waiter's own later actions), the property
// every wait condition in this package has.
func (c *waitCell) waitUntil(pred func(int64) bool) {
	if pred(c.v.Load()) {
		return
	}
	for i := c.spin; i > 0; i-- {
		if pred(c.v.Load()) {
			return
		}
	}
	if !c.park {
		for !pred(c.v.Load()) {
			runtime.Gosched()
		}
		return
	}
	for i := 0; i < parkYield; i++ {
		runtime.Gosched()
		if pred(c.v.Load()) {
			return
		}
	}
	c.parkUntil(pred)
}

// parkUntil is the slow path: commit to sleeping, with the final
// re-check ordered after the parked-count increment (see the handshake
// comment on waitCell).  Broadcast rather than Signal on the wake side
// keeps this correct when several goroutines park on one cell (e.g.
// readers on a gate): each wakes and re-checks its own predicate.
func (c *waitCell) parkUntil(pred func(int64) bool) {
	c.mu.Lock()
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
	}
	c.parked.Add(1)
	slept := false
	for !pred(c.v.Load()) {
		if st := c.stats; st != nil && !slept {
			slept = true
			st.Parks.Add(1)
		}
		c.cond.Wait()
	}
	c.parked.Add(-1)
	c.mu.Unlock()
	if slept {
		c.stats.Unparks.Add(1)
	}
}

// waitCtx blocks until the cell's word equals want or ctx is
// cancelled, returning nil in the first case and ctx.Err() in the
// second.  The value check always wins a race against cancellation: a
// waiter whose condition became true is reported woken, never
// cancelled, so a signal is never lost to a simultaneous deadline.
// Conversely a cancellation is never lost to a missing signal: the
// cancel side broadcasts into the same cond the wake side does, so a
// parked waiter re-checks ctx exactly as it re-checks the word.  A nil
// ctx (or one that can never be cancelled) degenerates to wait.
func (c *waitCell) waitCtx(ctx context.Context, want int64) error {
	if c.v.Load() == want {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		c.wait(want)
		return nil
	}
	for i := c.spin; i > 0; i-- {
		if c.v.Load() == want {
			return nil
		}
	}
	if !c.park {
		for c.v.Load() != want {
			select {
			case <-done:
				// Final re-check: the wake may have landed in the same
				// instant; the condition wins.
				if c.v.Load() == want {
					return nil
				}
				return ctx.Err()
			default:
			}
			runtime.Gosched()
		}
		return nil
	}
	for i := 0; i < parkYield; i++ {
		runtime.Gosched()
		if c.v.Load() == want {
			return nil
		}
	}
	return c.parkUntilCtx(ctx, done, func(v int64) bool { return v == want })
}

// waitUntilCtx is waitUntil with the same cancellation contract as
// waitCtx: nil when pred held, ctx.Err() on cancellation, with the
// predicate re-checked last so a simultaneous signal wins.
func (c *waitCell) waitUntilCtx(ctx context.Context, pred func(int64) bool) error {
	if pred(c.v.Load()) {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		c.waitUntil(pred)
		return nil
	}
	for i := c.spin; i > 0; i-- {
		if pred(c.v.Load()) {
			return nil
		}
	}
	if !c.park {
		for !pred(c.v.Load()) {
			select {
			case <-done:
				if pred(c.v.Load()) {
					return nil
				}
				return ctx.Err()
			default:
			}
			runtime.Gosched()
		}
		return nil
	}
	for i := 0; i < parkYield; i++ {
		runtime.Gosched()
		if pred(c.v.Load()) {
			return nil
		}
	}
	return c.parkUntilCtx(ctx, done, pred)
}

// parkUntilCtx is parkUntil with a second wake source: ctx's
// cancellation.  The AfterFunc broadcasts under the same mutex the
// signalling side uses, so the standard no-lost-wakeup argument covers
// cancellation too — a waiter between its predicate check and
// cond.Wait holds mu, which the canceller needs before broadcasting.
// The predicate is re-checked before ctx on every wake, so a
// simultaneous signal+cancel resolves to "woken".
func (c *waitCell) parkUntilCtx(ctx context.Context, done <-chan struct{}, pred func(int64) bool) error {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		if c.cond != nil {
			c.cond.Broadcast()
		}
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
	}
	c.parked.Add(1)
	slept := false
	for !pred(c.v.Load()) {
		select {
		case <-done:
			c.parked.Add(-1)
			c.mu.Unlock()
			if slept {
				c.stats.Unparks.Add(1)
			}
			if pred(c.v.Load()) {
				return nil
			}
			return ctx.Err()
		default:
		}
		if st := c.stats; st != nil && !slept {
			slept = true
			st.Parks.Add(1)
		}
		c.cond.Wait()
	}
	c.parked.Add(-1)
	c.mu.Unlock()
	if slept {
		c.stats.Unparks.Add(1)
	}
	return nil
}
