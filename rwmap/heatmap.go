package rwmap

import (
	"sort"

	"rwsync/rwlock"
)

// Per-stripe introspection: the heatmap snapshot the rwstats
// exporters serve.  It answers "where does the data live, and what
// lock guards each of those stripes" — a stripe index you can
// correlate with a key.

// StripeHeat describes one stripe of a Heatmap snapshot.
type StripeHeat struct {
	Index int `json:"index"`
	// Entries is the shard's entry count, read under the stripe's read
	// lock (consistent per stripe, like Len).
	Entries int `json:"entries"`
	// LockKind names the lock guarding the stripe ("SlimBravo",
	// "Bravo", "Epoch", ... — "other" for an unrecognized
	// WithLockFactory product).
	LockKind string `json:"lock_kind"`
}

// Heatmap is a point-in-time per-stripe view of a Map.
type Heatmap struct {
	Stripes int `json:"stripes"`
	// Entries is the entry count summed over the REPORTED stripes
	// only (all of them when top <= 0); use Len for the whole Map.
	Entries int `json:"entries"`
	// Top holds the largest stripes by entry count, largest first
	// (ties by index).
	Top []StripeHeat `json:"top"`
}

// lockKind names a stripe lock for the heatmap.
func lockKind(l rwlock.RWLock) string {
	switch l.(type) {
	case *rwlock.SlimBravo:
		return "SlimBravo"
	case *rwlock.SlimEpoch:
		return "SlimEpoch"
	case *rwlock.Bravo:
		return "Bravo"
	case *rwlock.Epoch:
		return "Epoch"
	case *rwlock.MWSF:
		return "MWSF"
	case *rwlock.MWRP:
		return "MWRP"
	case *rwlock.MWWP:
		return "MWWP"
	case *rwlock.SWWP:
		return "SWWP"
	case *rwlock.SWRP:
		return "SWRP"
	default:
		return "other"
	}
}

// Heatmap snapshots the top largest stripes by entry count.  top <= 0
// or top > Stripes() means every stripe.
//
// Cost: ranking needs every stripe's entry count, so a snapshot takes
// one read acquisition per stripe, i.e. Len cost.  The grid is never
// locked at once — at most one stripe lock is held at a time, like
// Range.  Safe for concurrent use; the snapshot is per-stripe
// consistent.
func (m *Map[K, V]) Heatmap(top int) Heatmap {
	n := len(m.stripes)
	if top <= 0 || top > n {
		top = n
	}
	heat := make([]StripeHeat, n)
	for i := range m.stripes {
		s := &m.stripes[i]
		heat[i] = StripeHeat{Index: i, Entries: s.entries(), LockKind: lockKind(s.lock)}
	}
	sort.Slice(heat, func(x, y int) bool {
		if heat[x].Entries != heat[y].Entries {
			return heat[x].Entries > heat[y].Entries
		}
		return heat[x].Index < heat[y].Index
	})
	h := Heatmap{Stripes: n, Top: heat[:top]}
	for _, sh := range h.Top {
		h.Entries += sh.Entries
	}
	return h
}
