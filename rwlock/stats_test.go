package rwlock

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// statsLock is the surface the churn driver exercises: every full
// lock in the package implements all three.
type statsLock interface {
	RWLock
	TryRWLock
	CtxRWLock
}

// checkLive asserts the invariant subset that holds in EVERY
// snapshot, including mid-traffic (see Snapshot's load-order note):
// the pairs whose write sites count the superset side first.
func checkLive(t *testing.T, name string, s *LockStatsSnapshot) {
	t.Helper()
	sheds := s.TrySheds + s.CtxSheds
	if s.ReadContended > s.ReadAcquires+sheds {
		t.Errorf("%s: live read_contended %d > read_acquires %d + sheds %d", name, s.ReadContended, s.ReadAcquires, sheds)
	}
	if s.ReclaimedVersions > s.RetiredVersions {
		t.Errorf("%s: live reclaimed %d > retired %d", name, s.ReclaimedVersions, s.RetiredVersions)
	}
	if s.RetainedVersionsMax > s.RetiredVersions {
		t.Errorf("%s: live retained_versions_max %d > retired %d", name, s.RetainedVersionsMax, s.RetiredVersions)
	}
	if s.Unparks > s.Parks {
		t.Errorf("%s: live unparks %d > parks %d", name, s.Unparks, s.Parks)
	}
	if s.Batches > s.CombinedOps || s.BatchMax > s.CombinedOps {
		t.Errorf("%s: live batches %d / batch_max %d > combined_ops %d", name, s.Batches, s.BatchMax, s.CombinedOps)
	}
	if s.BatchMax > 0 && s.Batches == 0 {
		t.Errorf("%s: live batch_max %d with zero batches", name, s.BatchMax)
	}
	if s.QueueDepth < 0 {
		t.Errorf("%s: live queue_depth %d < 0", name, s.QueueDepth)
	}
}

// monotone is the list of counters that may never decrease between
// two successive snapshots of the same block.
var monotoneCounters = []struct {
	name string
	get  func(*LockStatsSnapshot) uint64
}{
	{"read_acquires", func(s *LockStatsSnapshot) uint64 { return s.ReadAcquires }},
	{"read_contended", func(s *LockStatsSnapshot) uint64 { return s.ReadContended }},
	{"write_acquires", func(s *LockStatsSnapshot) uint64 { return s.WriteAcquires }},
	{"write_contended", func(s *LockStatsSnapshot) uint64 { return s.WriteContended }},
	{"try_sheds", func(s *LockStatsSnapshot) uint64 { return s.TrySheds }},
	{"ctx_sheds", func(s *LockStatsSnapshot) uint64 { return s.CtxSheds }},
	{"revocations", func(s *LockStatsSnapshot) uint64 { return s.Revocations }},
	{"re_arms", func(s *LockStatsSnapshot) uint64 { return s.ReArms }},
	{"epoch_advances", func(s *LockStatsSnapshot) uint64 { return s.EpochAdvances }},
	{"grace_waits", func(s *LockStatsSnapshot) uint64 { return s.GraceWaits }},
	{"queue_depth_max", func(s *LockStatsSnapshot) uint64 { return s.QueueDepthMax }},
	{"batches", func(s *LockStatsSnapshot) uint64 { return s.Batches }},
	{"batch_max", func(s *LockStatsSnapshot) uint64 { return s.BatchMax }},
	{"combined_ops", func(s *LockStatsSnapshot) uint64 { return s.CombinedOps }},
	{"parks", func(s *LockStatsSnapshot) uint64 { return s.Parks }},
	{"unparks", func(s *LockStatsSnapshot) uint64 { return s.Unparks }},
	{"retired_versions", func(s *LockStatsSnapshot) uint64 { return s.RetiredVersions }},
	{"reclaimed_versions", func(s *LockStatsSnapshot) uint64 { return s.ReclaimedVersions }},
	{"retained_versions_max", func(s *LockStatsSnapshot) uint64 { return s.RetainedVersionsMax }},
}

// churnTally is what the workers themselves observed; at quiescence
// the block must agree exactly.
type churnTally struct {
	reads, writes, trySheds, ctxSheds atomic.Uint64
}

// churnStats drives mixed traffic over l while snapshotting st from a
// separate goroutine, then checks the block against the workers' own
// tallies.  useTry must be false for the Bravo/Epoch wrappers: their
// TryLock can legitimately acquire and then shed the inner lock (a
// revocation that finds readers), so try-path counts are not 1:1 with
// caller-visible outcomes there.
func churnStats(t *testing.T, name string, l statsLock, st *LockStats, writers int, useTry bool, inWrite func()) {
	t.Helper()
	const readersN = 4
	deadline := time.Now().Add(60 * time.Millisecond)
	var tally churnTally
	var wg sync.WaitGroup

	for r := 0; r < readersN; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if i%7 == 3 {
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Microsecond)
					tok, err := l.RLockCtx(ctx)
					if err != nil {
						tally.ctxSheds.Add(1)
					} else {
						tally.reads.Add(1)
						l.RUnlock(tok)
					}
					cancel()
					continue
				}
				tok := l.RLock()
				tally.reads.Add(1)
				l.RUnlock(tok)
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if i%5 == 2 {
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Microsecond)
					tok, err := l.LockCtx(ctx)
					if err != nil {
						tally.ctxSheds.Add(1)
					} else {
						tally.writes.Add(1)
						if inWrite != nil {
							inWrite()
						}
						l.Unlock(tok)
					}
					cancel()
					continue
				}
				tok := l.Lock()
				tally.writes.Add(1)
				if inWrite != nil {
					inWrite()
				}
				l.Unlock(tok)
			}
		}()
	}
	if useTry {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if tok, ok := l.TryLock(); ok {
					tally.writes.Add(1)
					if inWrite != nil {
						inWrite()
					}
					l.Unlock(tok)
				} else {
					tally.trySheds.Add(1)
				}
				if tok, ok := l.TryRLock(); ok {
					tally.reads.Add(1)
					l.RUnlock(tok)
				} else {
					tally.trySheds.Add(1)
				}
			}
		}()
	}

	// The scrape: live snapshots must be monotone and satisfy the
	// stable invariant subset.
	stop := make(chan struct{})
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		prev := st.Snapshot()
		checkLive(t, name, &prev)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := st.Snapshot()
			checkLive(t, name, &cur)
			for _, m := range monotoneCounters {
				if m.get(&cur) < m.get(&prev) {
					t.Errorf("%s: counter %s went backwards: %d -> %d", name, m.name, m.get(&prev), m.get(&cur))
					return
				}
			}
			prev = cur
		}
	}()

	wg.Wait()
	close(stop)
	scrape.Wait()

	final := st.Snapshot()
	if err := final.CheckCoherence(); err != nil {
		t.Errorf("%s: quiescent CheckCoherence: %v", name, err)
	}
	if final.ReadAcquires != tally.reads.Load() {
		t.Errorf("%s: read_acquires %d != successful reads %d", name, final.ReadAcquires, tally.reads.Load())
	}
	if final.WriteAcquires != tally.writes.Load() {
		t.Errorf("%s: write_acquires %d != successful writes %d", name, final.WriteAcquires, tally.writes.Load())
	}
	if final.TrySheds != tally.trySheds.Load() {
		t.Errorf("%s: try_sheds %d != observed try failures %d", name, final.TrySheds, tally.trySheds.Load())
	}
	if final.CtxSheds != tally.ctxSheds.Load() {
		t.Errorf("%s: ctx_sheds %d != observed cancellations %d", name, final.CtxSheds, tally.ctxSheds.Load())
	}
	if final.QueueDepth != 0 {
		t.Errorf("%s: quiescent queue_depth %d != 0", name, final.QueueDepth)
	}
	if final.Unparks != final.Parks {
		t.Errorf("%s: quiescent unparks %d != parks %d", name, final.Unparks, final.Parks)
	}
}

// TestStatsChurn runs the churn driver over one lock of every layer
// combination the seam instruments and cross-checks the block against
// the workers' own tallies.
func TestStatsChurn(t *testing.T) {
	t.Run("mwsf-mcs", func(t *testing.T) {
		t.Parallel()
		st := &LockStats{}
		churnStats(t, "mwsf-mcs", NewMWSF(WithStats(st)), st, 2, true, nil)
	})
	t.Run("mwsf-bounded", func(t *testing.T) {
		t.Parallel()
		st := &LockStats{}
		churnStats(t, "mwsf-bounded", NewMWSF(WithStats(st), WithBoundedWriters(4)), st, 2, true, nil)
	})
	t.Run("mwrp", func(t *testing.T) {
		t.Parallel()
		st := &LockStats{}
		churnStats(t, "mwrp", NewMWRP(WithStats(st)), st, 2, true, nil)
	})
	t.Run("mwwp", func(t *testing.T) {
		t.Parallel()
		st := &LockStats{}
		churnStats(t, "mwwp", NewMWWP(WithStats(st)), st, 2, true, nil)
	})
	t.Run("swwp", func(t *testing.T) {
		t.Parallel()
		st := &LockStats{}
		// Single-writer contract: one writer goroutine, no TryLock
		// racer (a TryLock losing the writerBusy race would be a
		// legitimate shed, but Lock would panic — keep writers=1).
		churnStats(t, "swwp", NewSWWP(WithStats(st)), st, 1, false, nil)
	})
	t.Run("bravo-mwsf", func(t *testing.T) {
		t.Parallel()
		st := &LockStats{}
		churnStats(t, "bravo-mwsf", NewBravoMWSF(WithStats(st)), st, 2, true, nil)
	})
	t.Run("epoch-mwsf", func(t *testing.T) {
		t.Parallel()
		st := &LockStats{}
		e := NewEpochMWSF(WithStats(st))
		churnStats(t, "epoch-mwsf", e, st, 2, true, func() { e.Retire(make([]byte, 8), 8) })
	})
}

// outsideStatsSeam names the registry locks that ignore WithStats.
var outsideStatsSeam = map[string]bool{
	"CentralizedRW": true,
	"PhaseFairRW":   true,
	"TaskFairRW":    true,
	"RWMutexLock":   true,
}

// seamLocks returns every lock that implements the WithStats seam,
// built with opts: the registry's seam locks, the single-writer
// cores, and the multi-writer locks over the flat combiner (whose
// closure write path counts its own sheds).
func seamLocks(opts ...Option) map[string]statsLock {
	out := map[string]statsLock{}
	for name, l := range locks(opts...) {
		if !outsideStatsSeam[name] {
			out[name] = l.(statsLock)
		}
	}
	for name, l := range singleWriterLocks(opts...) {
		out[name] = l.(statsLock)
	}
	comb := append([]Option{WithCombiningWriters()}, opts...)
	out["MWSF/combine"] = NewMWSF(comb...)
	out["MWRP/combine"] = NewMWRP(comb...)
	out["MWWP/combine"] = NewMWWP(comb...)
	return out
}

// TestStatsCtxShedsPreCancelled pins the shed count of the ctx entry
// points deterministically: on every seam lock, a LockCtx and a
// WriteCtx on an idle lock and an RLockCtx under a held write lock,
// each with an already-cancelled context, must fail and add exactly
// one to CtxSheds.  (An RLockCtx on an idle lock may be granted — the
// grant wins the race — so the reader is tried under a writer.)
func TestStatsCtxShedsPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name := range seamLocks() {
		t.Run(name, func(t *testing.T) {
			st := &LockStats{}
			l := seamLocks(WithStats(st))[name]
			var sheds uint64
			check := func(op string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s with a cancelled context succeeded, want an error", op)
				}
				sheds++
				if got := st.Snapshot().CtxSheds; got != sheds {
					t.Errorf("after %s: ctx_sheds = %d, want %d", op, got, sheds)
				}
			}
			_, err := l.LockCtx(ctx)
			check("LockCtx", err)
			check("WriteCtx", l.(CtxFuncWriter).WriteCtx(ctx, func() { t.Error("WriteCtx ran cs") }))
			wt := l.Lock()
			_, err = l.RLockCtx(ctx)
			check("RLockCtx under a writer", err)
			l.Unlock(wt)
			// The sheds left the lock usable and took no acquisition.
			l.RUnlock(l.RLock())
			s := st.Snapshot()
			if s.WriteAcquires != 1 || s.ReadAcquires != 1 {
				t.Errorf("write_acquires %d, read_acquires %d; want 1 and 1", s.WriteAcquires, s.ReadAcquires)
			}
			if err := s.CheckCoherence(); err != nil {
				t.Errorf("CheckCoherence: %v", err)
			}
		})
	}
}

// TestStatsTryShedsExact pins the Try entry points' shed count: on
// every seam lock, a TryLock under a held read lock and a TryLock and
// a TryRLock under a held write lock must each fail and add exactly
// one to TrySheds, and none of them may count as an acquire.
func TestStatsTryShedsExact(t *testing.T) {
	for name := range seamLocks() {
		t.Run(name, func(t *testing.T) {
			st := &LockStats{}
			l := seamLocks(WithStats(st))[name]
			var sheds uint64
			check := func(op string, ok bool) {
				t.Helper()
				if ok {
					t.Fatalf("%s succeeded, want a failure", op)
				}
				sheds++
				if got := st.Snapshot().TrySheds; got != sheds {
					t.Errorf("after %s: try_sheds = %d, want %d", op, got, sheds)
				}
			}
			// The reader goes first, while a Bravo lock is still
			// read-biased: its TryLock then takes the inner lock before
			// the revocation finds the reader and sheds.
			rt := l.RLock()
			_, ok := l.TryLock()
			check("TryLock under a reader", ok)
			l.RUnlock(rt)
			wt := l.Lock()
			_, ok = l.TryLock()
			check("TryLock under a writer", ok)
			_, ok = l.TryRLock()
			check("TryRLock under a writer", ok)
			l.Unlock(wt)
			s := st.Snapshot()
			if s.WriteAcquires != 1 || s.ReadAcquires != 1 || s.CtxSheds != 0 {
				t.Errorf("write_acquires %d, read_acquires %d, ctx_sheds %d; want 1, 1, 0", s.WriteAcquires, s.ReadAcquires, s.CtxSheds)
			}
			if err := s.CheckCoherence(); err != nil {
				t.Errorf("CheckCoherence: %v", err)
			}
		})
	}
}

// TestStatsCtxShedsMidWait is TestStatsCtxShedsPreCancelled with the
// context cancelled while the caller waits: an RLockCtx, and a
// LockCtx where the writer's wait is abortable, blocked behind a held
// write lock must each add exactly one to CtxSheds.
func TestStatsCtxShedsMidWait(t *testing.T) {
	for name := range seamLocks() {
		t.Run(name, func(t *testing.T) {
			st := &LockStats{}
			l := seamLocks(WithStats(st))[name]
			// The LockCtx case needs a writer that can abort while it
			// waits: SWWP and SWRP admit one writer at a time, and a
			// bounded lock's writer is committed once it takes its
			// Anderson ticket (see AndersonLock.AcquireCtx).
			_, singleWriter := singleWriterLocks()[name]
			abortableWriter := !singleWriter && !strings.HasSuffix(name, "/bounded")
			var sheds uint64
			blocked := func(op string, acquire func(context.Context) error) {
				t.Helper()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				done := make(chan error, 1)
				go func() { done <- acquire(ctx) }()
				select {
				case err := <-done:
					t.Fatalf("%s behind a writer returned %v before its cancel", op, err)
				case <-time.After(20 * time.Millisecond):
				}
				cancel()
				select {
				case err := <-done:
					if err == nil {
						t.Fatalf("%s behind a writer succeeded after its cancel", op)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s did not return after its context was cancelled", op)
				}
				sheds++
				if got := st.Snapshot().CtxSheds; got != sheds {
					t.Errorf("after %s: ctx_sheds = %d, want %d", op, got, sheds)
				}
			}
			wt := l.Lock()
			blocked("RLockCtx", func(ctx context.Context) error {
				_, err := l.RLockCtx(ctx)
				return err
			})
			if abortableWriter {
				blocked("LockCtx", func(ctx context.Context) error {
					_, err := l.LockCtx(ctx)
					return err
				})
			}
			l.Unlock(wt)
			l.RUnlock(l.RLock())
			l.Unlock(l.Lock())
			s := st.Snapshot()
			if s.WriteAcquires != 2 || s.ReadAcquires != 1 || s.TrySheds != 0 {
				t.Errorf("write_acquires %d, read_acquires %d, try_sheds %d; want 2, 1, 0", s.WriteAcquires, s.ReadAcquires, s.TrySheds)
			}
			if err := s.CheckCoherence(); err != nil {
				t.Errorf("CheckCoherence: %v", err)
			}
		})
	}
}

// TestStatsCombining checks the flat-combining batch counters: the
// closure write path must account every combined op, and batch
// geometry must be coherent.
func TestStatsCombining(t *testing.T) {
	st := &LockStats{}
	l := NewMWRP(WithStats(st), WithCombiningWriters())
	const writers, per = 8, 200
	var wg sync.WaitGroup
	var ran atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Write(func() { ran.Add(1) })
			}
		}()
	}
	wg.Wait()
	s := st.Snapshot()
	if err := s.CheckCoherence(); err != nil {
		t.Fatalf("CheckCoherence: %v", err)
	}
	if got, want := ran.Load(), uint64(writers*per); got != want {
		t.Fatalf("closures ran %d, want %d", got, want)
	}
	if s.CombinedOps != uint64(writers*per) {
		t.Errorf("combined_ops %d != closure writes %d", s.CombinedOps, writers*per)
	}
	if s.WriteAcquires != uint64(writers*per) {
		t.Errorf("write_acquires %d != closure writes %d", s.WriteAcquires, writers*per)
	}
	if s.Batches == 0 || s.Batches > s.CombinedOps {
		t.Errorf("batches %d out of range (combined_ops %d)", s.Batches, s.CombinedOps)
	}
	if s.BatchMax == 0 || s.BatchMax > s.CombinedOps {
		t.Errorf("batch_max %d out of range (combined_ops %d)", s.BatchMax, s.CombinedOps)
	}
}

// TestStatsBravoCounters pins the wrapper-specific Bravo counters:
// fast-path reads count as read acquires, a writer entering under
// read bias counts exactly one revocation.
func TestStatsBravoCounters(t *testing.T) {
	st := &LockStats{}
	b := NewBravoMWSF(WithStats(st))
	const reads = 100
	for i := 0; i < reads; i++ {
		tok := b.RLock()
		b.RUnlock(tok)
	}
	if s := st.Snapshot(); s.ReadAcquires != reads {
		t.Fatalf("read_acquires %d after %d reads", s.ReadAcquires, reads)
	}
	if !b.ReadBiased() {
		t.Fatal("expected read bias before first write")
	}
	wt := b.Lock()
	b.Unlock(wt)
	s := st.Snapshot()
	if s.Revocations != 1 {
		t.Errorf("revocations %d after one write under bias, want 1", s.Revocations)
	}
	if s.WriteAcquires != 1 {
		t.Errorf("write_acquires %d, want 1", s.WriteAcquires)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Errorf("CheckCoherence: %v", err)
	}
}

// TestStatsEpochCounters pins the wrapper-specific Epoch counters
// against the lock's own quiescent EpochStats mirror.
func TestStatsEpochCounters(t *testing.T) {
	st := &LockStats{}
	e := NewEpochMWSF(WithStats(st))
	const writes = 50
	for i := 0; i < writes; i++ {
		e.Write(func() { e.Retire(make([]byte, 16), 16) })
	}
	// Reads interleaved so epochs actually see readers.
	for i := 0; i < 10; i++ {
		tok := e.RLock()
		e.RUnlock(tok)
	}
	s := st.Snapshot()
	if err := s.CheckCoherence(); err != nil {
		t.Fatalf("CheckCoherence: %v", err)
	}
	es, _ := e.EpochStats()
	if s.RetiredVersions != uint64(es.Retired) {
		t.Errorf("retired_versions %d != EpochStats.Retired %d", s.RetiredVersions, es.Retired)
	}
	if s.ReclaimedVersions != uint64(es.Reclaimed) {
		t.Errorf("reclaimed_versions %d != EpochStats.Reclaimed %d", s.ReclaimedVersions, es.Reclaimed)
	}
	if s.RetainedVersionsMax != uint64(es.MaxRetainedVersions) {
		t.Errorf("retained_versions_max %d != EpochStats.MaxRetainedVersions %d", s.RetainedVersionsMax, es.MaxRetainedVersions)
	}
	if s.RetiredVersions != writes {
		t.Errorf("retired_versions %d, want %d", s.RetiredVersions, writes)
	}
	if s.EpochAdvances == 0 || s.GraceWaits == 0 {
		t.Errorf("epoch_advances %d / grace_waits %d, want both > 0", s.EpochAdvances, s.GraceWaits)
	}
}

// TestStatsParks forces an actual goroutine park under SpinThenPark
// and checks the waitCell accounting balances at quiescence.
func TestStatsParks(t *testing.T) {
	st := &LockStats{}
	l := NewMWSF(WithStats(st), WithWaitStrategy(SpinThenPark))
	tok := l.Lock()
	released := make(chan struct{})
	go func() {
		rt := l.RLock() // blocks past the spin budget and parks
		l.RUnlock(rt)
		close(released)
	}()
	time.Sleep(30 * time.Millisecond)
	l.Unlock(tok)
	<-released
	s := st.Snapshot()
	if s.Parks == 0 {
		t.Error("parks == 0 after a 30ms blocked reader under SpinThenPark")
	}
	if s.Unparks != s.Parks {
		t.Errorf("quiescent unparks %d != parks %d", s.Unparks, s.Parks)
	}
}

// TestStatsSampledLatency drives enough passages through one block to
// guarantee histogram samples on both classes.
func TestStatsSampledLatency(t *testing.T) {
	st := &LockStats{}
	l := NewMWSF(WithStats(st))
	// Separate loops: the sampling counter is shared between the two
	// classes, so strict alternation would pin one class to odd counts
	// and starve its histogram.
	for i := 0; i < statsSampleEvery*4; i++ {
		wt := l.Lock()
		l.Unlock(wt)
	}
	for i := 0; i < statsSampleEvery*4; i++ {
		rt := l.RLock()
		l.RUnlock(rt)
	}
	s := st.Snapshot()
	if s.ReadWait.Count == 0 {
		t.Error("read_wait histogram empty after 256 sampled-window reads")
	}
	if s.WriteWait.Count == 0 {
		t.Error("write_wait histogram empty after 256 sampled-window writes")
	}
	if s.WriteHold.Count == 0 {
		t.Error("write_hold histogram empty after 256 sampled-window writes")
	}
	if err := s.CheckCoherence(); err != nil {
		t.Errorf("CheckCoherence: %v", err)
	}
}

// TestStatsDisabledZeroAlloc pins the disabled path: a lock built
// without WithStats must not allocate on any steady-state acquire
// path — the seam is a nil check, nothing more.
func TestStatsDisabledZeroAlloc(t *testing.T) {
	locks := map[string]statsLock{
		"mwsf":       NewMWSF(),
		"bravo-mwsf": NewBravoMWSF(),
		"epoch-mwsf": NewEpochMWSF(),
	}
	for name, l := range locks {
		l := l
		// Warm pools (MCS nodes, epoch slots) before measuring.
		for i := 0; i < 8; i++ {
			wt := l.Lock()
			l.Unlock(wt)
			rt := l.RLock()
			l.RUnlock(rt)
		}
		if n := testing.AllocsPerRun(200, func() {
			rt := l.RLock()
			l.RUnlock(rt)
		}); n != 0 {
			t.Errorf("%s: RLock/RUnlock allocates %.1f/op without stats", name, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			wt := l.Lock()
			l.Unlock(wt)
		}); n != 0 {
			t.Errorf("%s: Lock/Unlock allocates %.1f/op without stats", name, n)
		}
	}
}

// BenchmarkStatsOverhead is the A/B pin for the seam: the same
// read-heavy uncontended loop with the block absent and present.
// The disabled cell is the one the acceptance criteria compare
// against the pre-seam baseline.
func BenchmarkStatsOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		l := NewBravoMWSF()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				tok := l.RLock()
				l.RUnlock(tok)
			}
		})
	})
	b.Run("on", func(b *testing.B) {
		st := &LockStats{}
		l := NewBravoMWSF(WithStats(st))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				tok := l.RLock()
				l.RUnlock(tok)
			}
		})
	})
}
