package rwlock

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// These tests exercise the locks' internal semantics (they live in the
// package so they may drive the cores step by step), pinning the
// paper's behavioural claims on the NATIVE implementations.  Each
// core-level test runs under BOTH wait strategies: the blocked-then-
// released choreography is exactly where a retrofitted parking layer
// would lose a wakeup, so running the same scripts over SpinThenPark
// is the lost-wakeup regression net.

// strategies lists every wait strategy for test parameterization.
func strategies() []WaitStrategy { return []WaitStrategy{SpinYield, SpinThenPark} }

// TestSWWPCoreGateSemantics: after the writer's doorway (D toggled),
// the gate of the new side is closed, so a reader arriving now blocks
// until the writer's exit — the writer-priority mechanism (WP1).
func TestSWWPCoreGateSemantics(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			var c swwpCore
			c.init(strat, nil)

			prev, cur := c.writerDoorway()
			if prev != 0 || cur != 1 {
				t.Fatalf("first doorway: prev=%d cur=%d, want 0,1", prev, cur)
			}
			if c.gate[cur].load() != cellFalse {
				t.Fatal("gate of the writer's new side must be closed after the doorway")
			}

			entered := make(chan RToken)
			go func() { entered <- c.readerLock() }()
			select {
			case <-entered:
				t.Fatal("reader passed the closed gate")
			case <-time.After(10 * time.Millisecond):
			}

			c.writerWaitingRoom(prev) // no readers on the previous side: immediate
			c.writerExit(cur)
			select {
			case tok := <-entered: // the exit released (and woke) the reader
				c.readerUnlock(tok)
			case <-time.After(2 * time.Second):
				t.Fatal("reader not released by the writer's exit")
			}
		})
	}
}

// TestSWWPCoreLastReaderWakesWriter: with readers registered on the
// previous side, the writer blocks in its waiting room until the LAST
// reader of that side leaves — and only that reader writes the permit
// word (the O(1)-RMR handoff).
func TestSWWPCoreLastReaderWakesWriter(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			var c swwpCore
			c.init(strat, nil)

			// Two readers enter on side 0 (writer idle, gate[0] open).
			t1 := c.readerLock()
			t2 := c.readerLock()
			if t1.side != 0 || t2.side != 0 {
				t.Fatalf("readers on side %d/%d, want 0/0", t1.side, t2.side)
			}

			prev, cur := c.writerDoorway()
			done := make(chan struct{})
			go func() {
				c.writerWaitingRoom(prev)
				close(done)
			}()
			select {
			case <-done:
				t.Fatal("writer passed the waiting room with readers in the CS")
			case <-time.After(10 * time.Millisecond):
			}

			c.readerUnlock(t1) // not the last: the writer must stay blocked
			select {
			case <-done:
				t.Fatal("writer released by a non-last reader")
			case <-time.After(10 * time.Millisecond):
			}

			c.readerUnlock(t2) // last reader of side 0: wakes the writer
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("writer not released by the last reader")
			}
			c.writerExit(cur)
		})
	}
}

// TestSWRPCorePromoteSemantics: Promote only enables the writer when
// the reader count is zero, and goes through the caller's pid.
func TestSWRPCorePromoteSemantics(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			var c swrpCore
			c.init(strat, nil)

			// A reader registers; the writer's own Promote must NOT set
			// Permit (C != 0).
			rt := c.readerLock()
			c.d.Store(1) // writer doorway equivalent
			c.permit.store(cellFalse)
			c.promote(c.newID())
			if c.permit.load() != cellFalse {
				t.Fatal("Promote granted the writer with a reader registered")
			}

			// The exiting reader's Promote (inside readerUnlock) finds C == 0
			// and hands over: X becomes true and Permit is set.
			c.readerUnlock(rt)
			if c.permit.load() != cellTrue {
				t.Fatal("last reader's Promote did not wake the writer")
			}
			if c.x.Load() != xTrue {
				t.Fatalf("X = %d, want true sentinel", c.x.Load())
			}
		})
	}
}

// TestSWRPReadersBypassWaitingWriter: reader priority in action — a
// reader arriving while the writer WAITS (X != true yet) sails into
// the CS; the writer stays blocked (RP1).
func TestSWRPReadersBypassWaitingWriter(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			l := NewSWRP(WithWaitStrategy(strat))
			rt0 := l.RLock() // pin a reader so the writer cannot be promoted

			locked := make(chan WToken)
			go func() { locked <- l.Lock() }()
			// The writer cannot proceed while rt0 is in the CS.
			select {
			case <-locked:
				t.Fatal("writer entered with a reader in the CS")
			case <-time.After(10 * time.Millisecond):
			}

			// New readers keep entering without waiting.
			for i := 0; i < 3; i++ {
				done := make(chan struct{})
				go func() {
					tok := l.RLock()
					l.RUnlock(tok)
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(2 * time.Second):
					t.Fatal("reader blocked although the CS was read-occupied (RP violated)")
				}
			}

			l.RUnlock(rt0) // last reader out: the writer gets in
			wt := <-locked
			l.Unlock(wt)
		})
	}
}

// TestPhaseFairOnePhaseBound: a reader that arrives during writer A's
// critical section is admitted when A leaves, even if writer B is
// already queued — and B then waits for that reader (phase
// alternation R/W/R/W).
func TestPhaseFairOnePhaseBound(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			l := NewPhaseFairRW(WithWaitStrategy(strat))
			wtA := l.Lock()

			readerIn := make(chan RToken)
			go func() { readerIn <- l.RLock() }()
			// Give the reader time to register its rin increment.
			time.Sleep(5 * time.Millisecond)

			wtBCh := make(chan WToken)
			go func() { wtBCh <- l.Lock() }()
			select {
			case <-wtBCh:
				t.Fatal("writer B entered while A held the lock")
			case <-time.After(10 * time.Millisecond):
			}

			l.Unlock(wtA)
			// The reader must be admitted now (one phase boundary), while
			// writer B keeps waiting for it.
			var rt RToken
			select {
			case rt = <-readerIn:
			case <-time.After(2 * time.Second):
				t.Fatal("reader not admitted at the phase boundary")
			}
			select {
			case <-wtBCh:
				t.Fatal("writer B overtook the phase-boundary reader")
			case <-time.After(10 * time.Millisecond):
			}

			l.RUnlock(rt)
			wtB := <-wtBCh
			l.Unlock(wtB)
		})
	}
}

// TestPhaseFairReaderRetreat: a writer drains exactly the readers
// that arrived before its writer bits (rout must reach its snapshot
// of rin).  A reader that arrives after the bits and then gives up — a
// failed TryRLock, or an RLockCtx cancelled at the phase boundary —
// is not among them, so its retreat must not count as one of their
// exits: it would let the writer in while an earlier reader is still
// inside, or carry rout past the value the writer waits for and hang
// it.
func TestPhaseFairReaderRetreat(t *testing.T) {
	retreats := map[string]func(t *testing.T, l *PhaseFairRW){
		"TryRLock": func(t *testing.T, l *PhaseFairRW) {
			if _, ok := l.TryRLock(); ok {
				t.Fatal("TryRLock succeeded while a writer was draining")
			}
		},
		"RLockCtx": func(t *testing.T, l *PhaseFairRW) {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := l.RLockCtx(ctx)
				done <- err
			}()
			time.Sleep(5 * time.Millisecond) // let the reader wait at the boundary
			cancel()
			if err := <-done; err != context.Canceled {
				t.Fatalf("RLockCtx = %v, want context.Canceled", err)
			}
		},
	}
	for _, strat := range strategies() {
		for name, retreat := range retreats {
			t.Run(name+"/"+strat.String(), func(t *testing.T) {
				l := NewPhaseFairRW(WithWaitStrategy(strat))
				rt := l.RLock()
				wtCh := make(chan WToken, 1)
				go func() { wtCh <- l.Lock() }()
				for l.rin.load()&pfWBits == 0 {
					time.Sleep(time.Millisecond) // until the writer's bits are up
				}
				retreat(t, l)
				select {
				case <-wtCh:
					t.Fatal("writer entered while an earlier reader was inside")
				case <-time.After(20 * time.Millisecond):
				}
				l.RUnlock(rt)
				select {
				case wt := <-wtCh:
					l.Unlock(wt)
				case <-time.After(5 * time.Second):
					t.Fatal("writer never entered after the last earlier reader left")
				}
				l.RUnlock(l.RLock())
				l.Unlock(l.Lock())
			})
		}
	}
}

// TestMWWPTokenHandoff: with a writer queued behind the one in the
// CS, the exiting writer leaves the SWWP core held (W-token = pid),
// and the reader gate stays closed until the LAST writer leaves with
// nobody waiting — Figure 4's mechanism for WP1 across handoffs.
func TestMWWPTokenHandoff(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			l := NewMWWP(WithWaitStrategy(strat))
			wt1 := l.Lock()

			wt2Ch := make(chan WToken)
			go func() { wt2Ch <- l.Lock() }()
			time.Sleep(5 * time.Millisecond) // writer 2 increments Wcount and queues

			readerIn := make(chan RToken)
			go func() { readerIn <- l.RLock() }()
			time.Sleep(5 * time.Millisecond)

			l.Unlock(wt1)
			// Writer 2 must get in next (writer priority), not the reader.
			var wt2 WToken
			select {
			case wt2 = <-wt2Ch:
			case <-time.After(2 * time.Second):
				t.Fatal("queued writer not admitted after handoff")
			}
			select {
			case <-readerIn:
				t.Fatal("reader overtook the queued writer (WP violated)")
			case <-time.After(10 * time.Millisecond):
			}

			l.Unlock(wt2) // last writer out, no writer waiting: readers released
			rt := <-readerIn
			l.RUnlock(rt)
		})
	}
}

// TestCentralizedNoFairness documents (rather than fixes) the
// baseline's weakness: it provides exclusion but no ordering—this
// test only verifies exclusion holds under a writer/reader tug-of-war.
func TestCentralizedNoFairness(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			l := NewCentralizedRW(WithWaitStrategy(strat))
			var inCS atomic.Int32
			stop := make(chan struct{})
			for i := 0; i < 2; i++ {
				go func() {
					for {
						select {
						case <-stop:
							return
						default:
						}
						tok := l.Lock()
						if v := inCS.Add(1); v != 1 {
							t.Errorf("writer saw %d occupants", v)
						}
						inCS.Add(-1)
						l.Unlock(tok)
					}
				}()
			}
			for i := 0; i < 1000; i++ {
				tok := l.RLock()
				l.RUnlock(tok)
			}
			close(stop)
		})
	}
}
