// Package rwstats exports the rwlock/rwmap observability seams to
// standard monitoring surfaces.
//
// The rwlock package's WithStats seam fills a per-lock
// rwlock.LockStats block with always-coherent atomic counters, and
// rwmap.Map.Heatmap snapshots per-stripe entry counts; this package
// is the delivery layer over both:
//
//   - Registry names the sources: RegisterLock attaches a LockStats
//     block under a name, RegisterMap attaches anything with a
//     Heatmap method (an rwmap.Map of any type parameters).
//   - Registry.ServeHTTP serves one JSON document of every source's
//     snapshot — mount it at /debug/rwsync.
//   - Registry.Prometheus serves the same counters in the Prometheus
//     text exposition format (one series per lock label).
//   - Registry.PublishExpvar publishes the snapshot as an expvar
//     variable, visible through /debug/vars.
//   - Registry.StartWatchdog runs the stall monitor: a writer stuck
//     past a threshold is reported with the LAYER that is blocking it
//     (an epoch grace period, via the lock's grace register, or the
//     writer-arbitration queue, via queue depth without write
//     progress).  No goroutine exists until StartWatchdog, and Stop
//     tears it down.
//
// Every snapshot is taken with one atomic load per counter while
// traffic runs; serving a scrape never stops the locks.  The package
// depends only on the standard library and the sibling rwsync
// packages.
package rwstats
