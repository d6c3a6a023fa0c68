package rwlock

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitCellStoreWake: a single waiter, both strategies — the
// wait/Set+Wake handshake in isolation.
func TestWaitCellStoreWake(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			var c waitCell
			c.setStrategy(strat)
			done := make(chan struct{})
			go func() {
				c.wait(7)
				close(done)
			}()
			select {
			case <-done:
				t.Fatal("wait returned before the store")
			case <-time.After(10 * time.Millisecond):
			}
			c.storeWake(7)
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("waiter not woken by storeWake")
			}
			if c.parked.Load() != 0 {
				t.Fatalf("parked count %d after wake, want 0", c.parked.Load())
			}
		})
	}
}

// TestWaitCellSpinGate: a cell's tight spin phase is fixed by
// setStrategy from GOMAXPROCS — a SpinYield cell set up with one P has
// none (its spin could only burn the quantum the signaller needs),
// with two it has yieldSpin; SpinThenPark keeps parkSpin either way.
// In every case a storeWake from another goroutine releases both the
// plain and the ctx wait.
func TestWaitCellSpinGate(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, tc := range []struct {
		procs int
		strat WaitStrategy
		spin  int32
	}{
		{1, SpinYield, 0},
		{2, SpinYield, yieldSpin},
		{1, SpinThenPark, parkSpin},
		{2, SpinThenPark, parkSpin},
	} {
		runtime.GOMAXPROCS(tc.procs)
		var c waitCell
		c.setStrategy(tc.strat)
		if c.spin != tc.spin {
			t.Errorf("%s cell set up at GOMAXPROCS %d: spin %d, want %d", tc.strat, tc.procs, c.spin, tc.spin)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 2)
		go func() {
			c.wait(cellTrue)
			done <- nil
		}()
		go func() { done <- c.waitCtx(ctx, cellTrue) }()
		select {
		case <-done:
			t.Fatalf("%s at GOMAXPROCS %d: a wait returned before the store", tc.strat, tc.procs)
		case <-time.After(10 * time.Millisecond):
		}
		c.storeWake(cellTrue)
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s at GOMAXPROCS %d: waitCtx = %v, want nil", tc.strat, tc.procs, err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("%s at GOMAXPROCS %d: waiter not woken by storeWake", tc.strat, tc.procs)
			}
		}
	}
}

// TestWaitCellBroadcast: many goroutines parked on one cell (readers
// on a gate) must ALL be released by one storeWake.
func TestWaitCellBroadcast(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			var c waitCell
			c.setStrategy(strat)
			const n = 16
			var woken atomic.Int32
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.wait(cellTrue)
					woken.Add(1)
				}()
			}
			time.Sleep(20 * time.Millisecond) // let waiters park
			c.storeWake(cellTrue)
			wg.Wait()
			if woken.Load() != n {
				t.Fatalf("woke %d of %d waiters", woken.Load(), n)
			}
		})
	}
}

// TestWaitCellWaitUntil: predicate waits (the baselines' masked
// conditions) wake on adds.
func TestWaitCellWaitUntil(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			var c waitCell
			c.setStrategy(strat)
			c.store(3)
			done := make(chan struct{})
			go func() {
				c.waitUntil(func(v int64) bool { return v == 0 })
				close(done)
			}()
			c.addWake(-1)
			c.addWake(-1)
			select {
			case <-done:
				t.Fatal("waitUntil returned with value 1")
			case <-time.After(10 * time.Millisecond):
			}
			c.addWake(-1)
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("waitUntil not released at 0")
			}
		})
	}
}

// TestWaitCellWakeRace hammers the park/wake handshake: a ping-pong
// pair where each side's storeWake is the other's release.  Any lost
// wakeup deadlocks (caught by the test timeout); run under -race this
// also checks the parking path's memory discipline.
func TestWaitCellWakeRace(t *testing.T) {
	var ping, pong waitCell
	ping.setStrategy(SpinThenPark)
	pong.setStrategy(SpinThenPark)
	const rounds = 5000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ping.wait(int64(i + 1))
			pong.storeWake(int64(i + 1))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ping.storeWake(int64(i + 1))
			pong.wait(int64(i + 1))
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ping-pong deadlocked: lost wakeup in the parking layer")
	}
}

// TestWaitCellWaitCtxWake: an uncancelled waitCtx behaves exactly
// like wait — released by the signal, returning nil — under both
// strategies.
func TestWaitCellWaitCtxWake(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			var c waitCell
			c.setStrategy(strat)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- c.waitCtx(ctx, 7) }()
			select {
			case <-done:
				t.Fatal("waitCtx returned before the store")
			case <-time.After(10 * time.Millisecond):
			}
			c.storeWake(7)
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("waitCtx = %v after a real wake, want nil", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("waitCtx waiter not woken by storeWake")
			}
			if c.parked.Load() != 0 {
				t.Fatalf("parked count %d after wake, want 0", c.parked.Load())
			}
		})
	}
}

// TestWaitCellWaitCtxCancel: cancellation releases a waiter whose
// condition never becomes true, with ctx.Err() reported and no
// parked-count leak — the leak would silently break wakeAll's
// nobody-parked fast path forever after.
func TestWaitCellWaitCtxCancel(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			var c waitCell
			c.setStrategy(strat)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- c.waitCtx(ctx, 7) }()
			time.Sleep(10 * time.Millisecond) // let the waiter park
			cancel()
			select {
			case err := <-done:
				if err != context.Canceled {
					t.Fatalf("waitCtx = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("cancellation did not release the waiter")
			}
			if c.parked.Load() != 0 {
				t.Fatalf("parked count %d after cancel, want 0 (leak)", c.parked.Load())
			}
			// The cell must still work for later waiters: the cancelled
			// attempt may not have consumed or corrupted anything.
			go func() { done <- c.waitCtx(context.Background(), 7) }()
			c.storeWake(7)
			if err := <-done; err != nil {
				t.Fatalf("post-cancel waitCtx = %v, want nil", err)
			}
		})
	}
}

// TestWaitCellWaitCtxAlreadySatisfied: the value check always wins —
// a satisfied condition reports nil even on an already-cancelled ctx,
// and an already-cancelled ctx on an unsatisfied cell reports the
// error without waiting.
func TestWaitCellWaitCtxAlreadySatisfied(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var c waitCell
	c.store(7)
	if err := c.waitCtx(ctx, 7); err != nil {
		t.Fatalf("waitCtx on a satisfied cell = %v, want nil (value wins)", err)
	}
	c.store(0)
	if err := c.waitCtx(ctx, 7); err != context.Canceled {
		t.Fatalf("waitCtx on an unsatisfied cell = %v, want context.Canceled", err)
	}
	if err := c.waitUntilCtx(ctx, func(v int64) bool { return v == 7 }); err != context.Canceled {
		t.Fatalf("waitUntilCtx = %v, want context.Canceled", err)
	}
	c.store(7)
	if err := c.waitUntilCtx(ctx, func(v int64) bool { return v == 7 }); err != nil {
		t.Fatalf("waitUntilCtx on a satisfied cell = %v, want nil", err)
	}
}

// TestWaitCellWaitUntilCtxCancel: the predicate form's cancellation
// path, including a waiter that is later re-satisfied.
func TestWaitCellWaitUntilCtxCancel(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			var c waitCell
			c.setStrategy(strat)
			c.store(3)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				done <- c.waitUntilCtx(ctx, func(v int64) bool { return v == 0 })
			}()
			c.addWake(-1) // 2: not yet satisfied
			time.Sleep(10 * time.Millisecond)
			cancel()
			if err := <-done; err != context.Canceled {
				t.Fatalf("waitUntilCtx = %v, want context.Canceled", err)
			}
			if c.parked.Load() != 0 {
				t.Fatalf("parked count %d after cancel, want 0", c.parked.Load())
			}
		})
	}
}

// TestWaitCellCancelVsWakeRace races a storeWake against a cancel for
// the same parked waiter, many rounds, under both strategies.  Either
// outcome is legal, but the contract pins one asymmetry: when waitCtx
// returns nil the value was observed, and when it returns an error a
// LATER waiter must still be wakeable (no lost wakeup, no leaked
// parked count).  Run under -race this also exercises the
// AfterFunc-vs-broadcast path in parkUntilCtx.
func TestWaitCellCancelVsWakeRace(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			var c waitCell
			c.setStrategy(strat)
			const rounds = 2000
			for i := 0; i < rounds; i++ {
				c.store(0)
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() { done <- c.waitCtx(ctx, 1) }()
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); c.storeWake(1) }()
				go func() { defer wg.Done(); cancel() }()
				var err error
				select {
				case err = <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: waiter released by neither wake nor cancel", i)
				}
				wg.Wait()
				if err == nil && c.load() != 1 {
					t.Fatalf("round %d: waitCtx reported woken with value %d", i, c.load())
				}
				if n := c.parked.Load(); n != 0 {
					t.Fatalf("round %d: parked count %d leaked", i, n)
				}
			}
		})
	}
}

// TestWaitStrategyString pins the names the lock registry builds on.
func TestWaitStrategyString(t *testing.T) {
	if SpinYield.String() != "spin" || SpinThenPark.String() != "park" {
		t.Fatalf("strategy names changed: %q/%q", SpinYield, SpinThenPark)
	}
	if WaitStrategy(99).String() != "unknown" {
		t.Fatalf("out-of-range strategy name %q", WaitStrategy(99))
	}
}
