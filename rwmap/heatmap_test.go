package rwmap

import (
	"fmt"
	"testing"

	"rwsync/rwlock"
)

// TestHeatmapNonAdaptive checks the entry-count ranking and the kind
// naming for a WithLockFactory grid.
func TestHeatmapNonAdaptive(t *testing.T) {
	m := New[int, int](
		WithStripes(8),
		WithLockFactory(func() rwlock.RWLock { return rwlock.NewMWSF() }),
	)
	for i := 0; i < 200; i++ {
		m.Put(i, i)
	}
	h := m.Heatmap(0) // all stripes
	if h.Stripes != 8 {
		t.Fatalf("Stripes = %d, want 8", h.Stripes)
	}
	if len(h.Top) != 8 {
		t.Fatalf("len(Top) = %d, want all 8 stripes", len(h.Top))
	}
	if h.Entries != m.Len() {
		t.Errorf("Entries = %d, want Len() = %d", h.Entries, m.Len())
	}
	for i := 1; i < len(h.Top); i++ {
		if h.Top[i].Entries > h.Top[i-1].Entries {
			t.Errorf("Top not sorted by entries at %d: %d > %d", i, h.Top[i].Entries, h.Top[i-1].Entries)
		}
	}
	for _, sh := range h.Top {
		if sh.LockKind != "MWSF" {
			t.Errorf("stripe %d LockKind = %q, want MWSF", sh.Index, sh.LockKind)
		}
	}
}

// TestHeatmapEntriesReported: a cut snapshot's Entries is the sum over
// the stripes it reports, not over the whole Map, and the cut keeps
// the largest stripes.
func TestHeatmapEntriesReported(t *testing.T) {
	m := New[int, int](WithStripes(8))
	for i := 0; i < 200; i++ {
		m.Put(i, i)
	}
	all := m.Heatmap(0)
	h := m.Heatmap(2)
	if len(h.Top) != 2 {
		t.Fatalf("len(Top) = %d, want 2", len(h.Top))
	}
	sum := 0
	for i, sh := range h.Top {
		sum += sh.Entries
		if sh != all.Top[i] {
			t.Errorf("Top[%d] = %+v, want the full ranking's %+v", i, sh, all.Top[i])
		}
	}
	if h.Entries != sum {
		t.Fatalf("Heatmap(2).Entries = %d, want the reported stripes' sum %d (Len %d)", h.Entries, sum, m.Len())
	}
}

// TestHeatmapConcurrent races Heatmap against live traffic; run under
// -race this pins that the snapshot takes the stripe locks it needs.
func TestHeatmapConcurrent(t *testing.T) {
	m := New[string, int](WithStripes(8))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("k%d", i%32)
			m.Put(k, i)
			m.Get(k)
		}
	}()
	for i := 0; i < 50; i++ {
		h := m.Heatmap(3)
		if len(h.Top) != 3 {
			t.Fatalf("len(Top) = %d, want 3", len(h.Top))
		}
	}
	close(stop)
	<-done
}
