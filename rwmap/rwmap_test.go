package rwmap

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rwsync/rwlock"
)

// TestStripeRounding: the stripe count is clamped to [1, 1<<20] and
// rounded UP to a power of two — the mask indexing depends on it.
func TestStripeRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {-5, 1}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {1000, 1024},
		{1 << 20, 1 << 20}, {1<<20 + 1, 1 << 20}, {1 << 25, 1 << 20},
	} {
		m := New[int, int](WithStripes(tc.in))
		if got := m.Stripes(); got != tc.want {
			t.Errorf("WithStripes(%d): %d stripes, want %d", tc.in, got, tc.want)
		}
	}
	if got := New[int, int]().Stripes(); got != defaultStripes {
		t.Errorf("default stripes = %d, want %d", got, defaultStripes)
	}
}

// TestBasicOps: the sequential contract of the whole surface.
func TestBasicOps(t *testing.T) {
	m := New[string, int](WithStripes(8))
	if _, ok := m.Get("a"); ok {
		t.Fatal("Get on empty map reported a value")
	}
	m.Put("a", 1)
	m.Put("b", 2)
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v, want 1,true", v, ok)
	}
	if n := m.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	m.Put("a", 10) // overwrite
	if v, _ := m.Get("a"); v != 10 {
		t.Fatalf("Get(a) after overwrite = %d, want 10", v)
	}
	m.Delete("a")
	if _, ok := m.Get("a"); ok {
		t.Fatal("Get(a) after Delete reported a value")
	}
	m.Delete("never-there") // deleting a missing key is a no-op
	if n := m.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}

	var got int
	var had bool
	m.Read("b", func(v int, ok bool) { got, had = v, ok })
	if !had || got != 2 {
		t.Fatalf("Read(b) = %d,%v, want 2,true", got, had)
	}
}

// TestUpdate: read-modify-write atomicity surface — insert, mutate,
// and delete through the closure, including the missing-key case.
func TestUpdate(t *testing.T) {
	m := New[string, int](WithStripes(4))
	m.Update("ctr", func(v int, ok bool) (int, bool) {
		if ok {
			t.Error("Update saw a value in an empty map")
		}
		return 1, true
	})
	m.Update("ctr", func(v int, ok bool) (int, bool) {
		if !ok || v != 1 {
			t.Errorf("Update saw %d,%v, want 1,true", v, ok)
		}
		return v + 1, true
	})
	if v, _ := m.Get("ctr"); v != 2 {
		t.Fatalf("ctr = %d, want 2", v)
	}
	m.Update("ctr", func(v int, ok bool) (int, bool) { return 0, false }) // delete
	if _, ok := m.Get("ctr"); ok {
		t.Fatal("entry survived an Update that returned keep=false")
	}
	// keep=false on a missing key must stay a no-op, not a phantom
	// delete of something else.
	m.Update("ghost", func(v int, ok bool) (int, bool) { return 0, false })
	if n := m.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
}

// TestRange: full walk, early stop, and the per-stripe lock release
// on the early-return path (a leaked RLock would deadlock the writer
// below).
func TestRange(t *testing.T) {
	m := New[int, int](WithStripes(8))
	for i := 0; i < 100; i++ {
		m.Put(i, i*i)
	}
	seen := map[int]int{}
	m.Range(func(k, v int) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("Range visited %d entries, want 100", len(seen))
	}
	for k, v := range seen {
		if v != k*k {
			t.Fatalf("Range saw %d -> %d, want %d", k, v, k*k)
		}
	}
	calls := 0
	m.Range(func(k, v int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early-stop Range made %d calls, want 1", calls)
	}
	// All stripe locks must be free again.
	for i := 0; i < 100; i++ {
		m.Put(i, 0)
	}
}

// TestLockOf: the measurement seam — the same key always maps to the
// same lock, and that lock really guards the key (a held write lock
// blocks the key's Get path, proven here by TryRLock).
func TestLockOf(t *testing.T) {
	m := New[string, int](WithStripes(16))
	if m.LockOf("k") != m.LockOf("k") {
		t.Fatal("LockOf not stable for a key")
	}
	l := m.LockOf("k")
	wt := l.Lock()
	if tl, ok := l.(rwlock.TryRWLock); ok {
		if _, got := tl.TryRLock(); got {
			t.Fatal("TryRLock succeeded while the stripe writer held")
		}
	}
	l.Unlock(wt)
	m.Put("k", 1) // and the stripe still works after direct lock use
}

// mapFactories is the lock-factory matrix the concurrency tests run
// over: the slim default, both full fast-path wrappers (one on a
// shared arena), a flat-combining lock (Update batches through its
// closure path), and the plain paper lock.
func mapFactories() map[string]Option {
	shared := rwlock.NewReaderTable(64)
	return map[string]Option{
		"SlimBravo-default": WithLockFactory(func() rwlock.RWLock { return rwlock.NewSlimBravo() }),
		"SlimEpoch":         WithLockFactory(func() rwlock.RWLock { return rwlock.NewSlimEpoch() }),
		"Bravo-shared":      WithLockFactory(func() rwlock.RWLock { return rwlock.NewBravoMWSF(rwlock.WithSharedReaderTable(shared)) }),
		"Epoch":             WithLockFactory(func() rwlock.RWLock { return rwlock.NewEpochMWSF() }),
		"MWSF-combine":      WithLockFactory(func() rwlock.RWLock { return rwlock.NewMWSF(rwlock.WithCombiningWriters()) }),
		"MWSF":              WithLockFactory(func() rwlock.RWLock { return rwlock.NewMWSF() }),
	}
}

// TestConcurrentUpdates: N goroutines increment M counters through
// Update; every increment must survive (lost updates = a striping or
// exclusion bug), under every lock factory.  Run with -race this also
// proves Get/Update exclusion per stripe.
func TestConcurrentUpdates(t *testing.T) {
	for name, opt := range mapFactories() {
		t.Run(name, func(t *testing.T) {
			m := New[int, int](WithStripes(8), opt)
			const goroutines, keys, iters = 8, 5, 200
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						k := (g + i) % keys
						m.Update(k, func(v int, ok bool) (int, bool) { return v + 1, true })
						m.Get(k)
					}
				}(g)
			}
			wg.Wait()
			total := 0
			m.Range(func(k, v int) bool { total += v; return true })
			if total != goroutines*iters {
				t.Fatalf("counter sum = %d, want %d (lost updates)", total, goroutines*iters)
			}
		})
	}
}

// TestConcurrentMixed: readers walk and Get while writers Put and
// Delete disjoint key ranges — the torn-state check is the race
// detector's.
func TestConcurrentMixed(t *testing.T) {
	m := New[int, [2]int](WithStripes(16))
	const writers, readers, iters = 4, 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * iters
			for i := 0; i < iters; i++ {
				m.Put(base+i, [2]int{i, i})
				if i%3 == 0 {
					m.Delete(base + i)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if v, ok := m.Get(i); ok && v[0] != v[1] {
					t.Errorf("torn value %v", v)
					return
				}
				if i%64 == 0 {
					m.Range(func(k int, v [2]int) bool { return v[0] == v[1] })
				}
			}
		}()
	}
	wg.Wait()
}

// TestMillionStripes: the serving-tier scale point — a 2^20-stripe
// map on the default slim locks constructs, serves, and stays
// correct.  This is the configuration the footprint numbers exist
// for; skipped in -short.
func TestMillionStripes(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-stripe construction in -short")
	}
	m := New[uint64, uint64](WithStripes(1 << 20))
	if m.Stripes() != 1<<20 {
		t.Fatalf("Stripes = %d, want %d", m.Stripes(), 1<<20)
	}
	for i := uint64(0); i < 4096; i++ {
		m.Put(i, i)
	}
	for i := uint64(0); i < 4096; i++ {
		if v, ok := m.Get(i); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	if n := m.Len(); n != 4096 {
		t.Fatalf("Len = %d, want 4096", n)
	}
}

// TestCallbackPanicReleasesStripe: a user callback that panics inside
// a stripe critical section must not leave the stripe locked, under
// every lock factory.  Each case recovers the panic, then requires a
// Put on the same key (a write acquisition of the same stripe) to
// finish.  Update on a flat-combining lock runs f on the combiner's
// closure path, which this does not cover.
func TestCallbackPanicReleasesStripe(t *testing.T) {
	cases := map[string]func(m *Map[int, int]){
		"Update": func(m *Map[int, int]) {
			m.Update(1, func(int, bool) (int, bool) { panic("update") })
		},
		"GetOrCompute": func(m *Map[int, int]) {
			m.GetOrCompute(1, func() int { panic("fill") })
		},
		"Read": func(m *Map[int, int]) {
			m.Read(1, func(int, bool) { panic("read") })
		},
		"Range": func(m *Map[int, int]) {
			m.Range(func(int, int) bool { panic("range") })
		},
	}
	for lockName, opt := range mapFactories() {
		for op, call := range cases {
			if op == "Update" && lockName == "MWSF-combine" {
				continue
			}
			t.Run(lockName+"/"+op, func(t *testing.T) {
				m := New[int, int](WithStripes(1), opt)
				m.Put(0, 0) // gives Range an entry to panic on
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("the %s callback's panic did not propagate", op)
						}
					}()
					call(m)
				}()
				done := make(chan struct{})
				go func() { m.Put(1, 7); close(done) }()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("Put after a panicking %s callback did not finish: the stripe stayed locked", op)
				}
				if v, ok := m.Get(1); !ok || v != 7 {
					t.Fatalf("Get(1) = %d,%v after the Put, want 7,true", v, ok)
				}
			})
		}
	}
}

// TestGetOrCompute: sequential contract — miss fills and reports
// loaded=false, hit returns the stored value without running fill.
func TestGetOrCompute(t *testing.T) {
	m := New[string, int](WithStripes(4))
	calls := 0
	v, loaded := m.GetOrCompute("a", func() int { calls++; return 42 })
	if loaded || v != 42 || calls != 1 {
		t.Fatalf("miss: got (%d,%v) after %d fills, want (42,false) after 1", v, loaded, calls)
	}
	v, loaded = m.GetOrCompute("a", func() int { calls++; return 99 })
	if !loaded || v != 42 || calls != 1 {
		t.Fatalf("hit: got (%d,%v) after %d fills, want (42,true) after 1", v, loaded, calls)
	}
	m.Put("a", 7)
	if v, _ = m.GetOrCompute("a", func() int { calls++; return 0 }); v != 7 || calls != 1 {
		t.Fatalf("hit after Put: got %d after %d fills, want 7 after 1", v, calls)
	}
}

// TestGetOrComputeSingleFlight: of any set of concurrent callers for
// one missing key, exactly one runs fill — the write-upgrade re-check
// closes the Get-miss/Put lost-update window the two-acquisition
// sequence has.
func TestGetOrComputeSingleFlight(t *testing.T) {
	t.Run("slim", func(t *testing.T) {
		m := New[int, int](WithStripes(1))
		var fills, start atomic.Int64
		const callers = 16
		var wg sync.WaitGroup
		results := make([]int, callers)
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Add(1)
				for start.Load() < callers { // line everyone up on the miss
				}
				results[i], _ = m.GetOrCompute(0, func() int {
					return int(fills.Add(1)) * 1000
				})
			}()
		}
		wg.Wait()
		if fills.Load() != 1 {
			t.Fatalf("fill ran %d times for one missing key, want 1", fills.Load())
		}
		for i, r := range results {
			if r != 1000 {
				t.Fatalf("caller %d got %d, want the single fill's 1000", i, r)
			}
		}
	})
}

// TestServingPathAllocs pins the serving-tier hot paths at zero
// allocations on the default Slim stripes.
func TestServingPathAllocs(t *testing.T) {
	update := func(v int, ok bool) (int, bool) { return v + 1, true }
	fill := func() int { return 0 }
	pin := func(t *testing.T, name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	t.Run("slim", func(t *testing.T) {
		m, k := New[int, int](WithStripes(8)), 1
		m.Put(k, 0)
		pin(t, "Get", func() { m.Get(k) })
		pin(t, "Put", func() { m.Put(k, 1) })
		pin(t, "Update", func() { m.Update(k, update) })
		pin(t, "GetOrCompute hit", func() { m.GetOrCompute(k, fill) })
	})
}

// TestStripeFootprint pins the default grid's heap cost per stripe:
// the stripe struct itself, its 16-byte SlimBravo and its empty shard
// map, with nothing else allocated per stripe.  GC is off so the
// delta counts every byte New allocates, garbage included; a build
// ahead of the measured one warms the shared reader table and the
// allocator's size-class spans.
func TestStripeFootprint(t *testing.T) {
	const stripes = 1 << 16
	const maxPerStripe = 112
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.KeepAlive(New[uint64, uint64](WithStripes(stripes)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New[uint64, uint64](WithStripes(stripes))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	per := float64(after.TotalAlloc-before.TotalAlloc) / stripes
	t.Logf("%.1f B/stripe at %d stripes", per, stripes)
	if per > maxPerStripe {
		t.Fatalf("New allocates %.1f B/stripe, want at most %d", per, maxPerStripe)
	}
}
