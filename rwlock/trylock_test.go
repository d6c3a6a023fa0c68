package rwlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Table-driven semantics suite for the TryRWLock contract: every lock
// in the registry (multi-writer locks under both MCS and Anderson
// arbitration, the baselines, the Bravo wrappers) plus the
// single-writer cores must implement genuinely non-blocking
// TryLock/TryRLock with the same three-state truth table, and the
// probes must be allocation-free so a caller can poll them on a hot
// path.

// tryLocks returns every registry lock asserted to TryRWLock — the
// assertion itself is part of the suite: a lock that drops the
// interface fails here at compile time of the map literal.
func tryLocks(opts ...Option) map[string]interface {
	RWLock
	TryRWLock
} {
	out := map[string]interface {
		RWLock
		TryRWLock
	}{}
	for name, l := range locks(opts...) {
		out[name] = l.(interface {
			RWLock
			TryRWLock
		})
	}
	for name, l := range singleWriterLocks(opts...) {
		out[name] = l.(interface {
			RWLock
			TryRWLock
		})
	}
	return out
}

// TestTryLockTruthTable pins the three states of the contract on
// every lock × both wait strategies:
//
//	free       → TryLock ok, TryRLock ok
//	write-held → TryLock fails, TryRLock fails
//	read-held  → TryLock fails, TryRLock ok (readers share)
//
// and that a failed probe leaves the lock fully usable (the undo
// paths — zero-length reader passages, bias restores, released
// arbitration slots — must be complete).
func TestTryLockTruthTable(t *testing.T) {
	for _, strat := range strategies() {
		opt := WithWaitStrategy(strat)
		for name, l := range tryLocks(opt) {
			l := l
			t.Run(name+"/"+strat.String(), func(t *testing.T) {
				t.Parallel()

				// Free.
				wt, ok := l.TryLock()
				if !ok {
					t.Fatal("TryLock failed on a free lock")
				}

				// Write-held.
				if _, ok := l.TryLock(); ok {
					t.Fatal("TryLock succeeded while write-held")
				}
				if _, ok := l.TryRLock(); ok {
					t.Fatal("TryRLock succeeded while write-held")
				}
				l.Unlock(wt)

				// Free again (the failed probes must have undone
				// themselves).
				rt, ok := l.TryRLock()
				if !ok {
					t.Fatal("TryRLock failed on a free lock")
				}

				// Read-held.
				if _, ok := l.TryLock(); ok {
					t.Fatal("TryLock succeeded while read-held")
				}
				rt2, ok := l.TryRLock()
				if !ok {
					t.Fatal("TryRLock failed while read-held (readers must share)")
				}
				l.RUnlock(rt2)
				l.RUnlock(rt)

				// Fully released: the blocking paths must interoperate
				// with probe-acquired state.
				l.Unlock(l.Lock())
				l.RUnlock(l.RLock())
				wt2, ok := l.TryLock()
				if !ok {
					t.Fatal("TryLock failed after a full probe/blocking cycle")
				}
				l.Unlock(wt2)
			})
		}
	}
}

// TestTryLockNonBlocking proves the probes cannot wait: with the lock
// write-held, a probing goroutine must come back within the test's
// generous bound even under SpinThenPark, where any accidental wait
// would park it indefinitely.
func TestTryLockNonBlocking(t *testing.T) {
	for name, l := range tryLocks(WithWaitStrategy(SpinThenPark)) {
		l := l
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wt, _ := l.TryLock()
			done := make(chan struct{})
			go func() {
				for i := 0; i < 100; i++ {
					if _, ok := l.TryLock(); ok {
						t.Error("TryLock succeeded while held")
					}
					if _, ok := l.TryRLock(); ok {
						t.Error("TryRLock succeeded while write-held")
					}
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("probe blocked: TryLock/TryRLock parked somewhere")
			}
			l.Unlock(wt)
		})
	}
}

// TestTryLockAllocFree: the probes are poll-path material, so a
// success/release cycle must not allocate in steady state (MCS nodes
// recycle through the pool; tokens are values).  Failed probes are
// measured too — a prober that allocates on every miss would bloat a
// polling loop.
func TestTryLockAllocFree(t *testing.T) {
	for name, l := range tryLocks() {
		l := l
		t.Run(name, func(t *testing.T) {
			// Warm the node pools so steady state is what is measured.
			for i := 0; i < 10; i++ {
				if wt, ok := l.TryLock(); ok {
					l.Unlock(wt)
				}
			}
			if n := testing.AllocsPerRun(100, func() {
				wt, ok := l.TryLock()
				if !ok {
					t.Fatal("TryLock failed on a free lock")
				}
				l.Unlock(wt)
			}); n != 0 {
				t.Fatalf("TryLock/Unlock allocates %.1f objects per cycle", n)
			}
			// The epoch wrapper's read probe leases a stamp slot, and
			// under -race that lease rides sync.Pool, whose deliberate
			// Put drops force slot re-registrations — the same noise
			// TestEpochFastReadZeroAlloc quantifies; the exact zero is
			// pinned by the non-race build, where the full lease path
			// (per-P cache + pool steady state) is active.
			rlimit := 0.0
			if raceEnabled {
				if _, ok := l.(epochStatser); ok {
					rlimit = 3.0
				}
			}
			if n := testing.AllocsPerRun(100, func() {
				rt, ok := l.TryRLock()
				if !ok {
					t.Fatal("TryRLock failed on a free lock")
				}
				l.RUnlock(rt)
			}); n > rlimit {
				t.Fatalf("TryRLock/RUnlock allocates %.1f objects per cycle", n)
			}
			wt, _ := l.TryLock()
			if n := testing.AllocsPerRun(100, func() {
				if _, ok := l.TryLock(); ok {
					t.Fatal("TryLock succeeded while held")
				}
				if _, ok := l.TryRLock(); ok {
					t.Fatal("TryRLock succeeded while write-held")
				}
			}); n != 0 {
				t.Fatalf("failed probes allocate %.1f objects per cycle", n)
			}
			l.Unlock(wt)
		})
	}
}

// TestTryLockHammer races probes against blocking acquirers on every
// lock: successful TryLocks mutate plain data (-race proves they are
// really exclusive), successful TryRLocks read it, and the final
// count proves probe passages are neither lost nor duplicated.  SWWP
// and SWRP admit one write attempt at a time (a second one panics by
// contract), so on them one goroutine makes both the blocking and the
// probing write passages, and only the read probes race them.
func TestTryLockHammer(t *testing.T) {
	for _, strat := range strategies() {
		opt := WithWaitStrategy(strat)
		for name, l := range tryLocks(opt) {
			l := l
			_, singleWriter := singleWriterLocks()[name]
			t.Run(name+"/"+strat.String(), func(t *testing.T) {
				t.Parallel()
				var data int64 // plain, guarded only by l
				var writes atomic.Int64
				var wg sync.WaitGroup
				const lap = 300
				lock := func() {
					tok := l.Lock()
					data++
					writes.Add(1)
					l.Unlock(tok)
				}
				tryLock := func() {
					if tok, ok := l.TryLock(); ok {
						data++
						writes.Add(1)
						l.Unlock(tok)
					}
				}
				tryRLock := func() {
					if tok, ok := l.TryRLock(); ok {
						_ = data
						l.RUnlock(tok)
					}
				}
				laps := func(ops ...func()) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := 0; k < lap; k++ {
							for _, op := range ops {
								op()
							}
						}
					}()
				}
				for i := 0; i < 2; i++ {
					switch {
					case !singleWriter:
						laps(lock)
						laps(tryLock)
					case i == 0:
						laps(lock, tryLock)
					}
					laps(tryRLock)
				}
				wg.Wait()
				if data != writes.Load() {
					t.Fatalf("data = %d, writes = %d (probe passage lost or doubled)", data, writes.Load())
				}
			})
		}
	}
}

// TestBravoTryLockRestoresBias: a Bravo TryLock that finds fast-path
// readers published in the slot table must fail AND restore the
// reader bias — a probe that permanently disabled the fast path would
// silently degrade every future reader.
func TestBravoTryLockRestoresBias(t *testing.T) {
	b := NewBravoMWSF()
	// Install a fast-path reader: with the bias up, RLock claims a
	// slot.
	rt := b.RLock()
	if rt.side != bravoFastSide {
		t.Skip("reader did not take the fast path (table contention)")
	}
	if _, ok := b.TryLock(); ok {
		t.Fatal("TryLock succeeded with a fast-path reader inside")
	}
	if !b.rbias.Load() {
		t.Fatal("failed TryLock left the reader bias revoked")
	}
	// The fast path must still be live for the next reader.
	rt2 := b.RLock()
	if rt2.side != bravoFastSide {
		t.Fatal("reader pushed off the fast path after a failed TryLock")
	}
	b.RUnlock(rt2)
	b.RUnlock(rt)
	// With no readers published, the probe must succeed and lower the
	// bias.
	wt, ok := b.TryLock()
	if !ok {
		t.Fatal("TryLock failed on an idle Bravo lock")
	}
	if b.rbias.Load() {
		t.Fatal("successful TryLock left the reader bias raised")
	}
	b.Unlock(wt)
}

// TestBravoTryRLockVsRevocation races TryRLock probes against
// writers: the probe claims a slot, re-checks the bias, and must back
// out when a revocation snuck in between — any miss shows up as a
// reader inside a writer's CS, which -race detects on the plain data
// word.
func TestBravoTryRLockVsRevocation(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			b := NewBravoMWSF(WithWaitStrategy(strat))
			var data int64 // plain, guarded only by b
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if tok, ok := b.TryRLock(); ok {
							_ = data
							b.RUnlock(tok)
						}
					}
				}()
			}
			for k := 0; k < 300; k++ {
				tok := b.Lock() // revokes the bias and drains the table
				data++
				b.Unlock(tok)
			}
			close(stop)
			wg.Wait()
		})
	}
}
