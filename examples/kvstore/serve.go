package main

import (
	"expvar"
	"fmt"
	"log"
	"math/rand/v2"
	"net/http"
	"time"

	"rwsync/rwlock"
	"rwsync/rwmap"
	"rwsync/rwstats"
)

// serve runs the store as a long-lived process with the observability
// surface mounted — the deployment shape the rwstats package is for:
//
//	/debug/rwsync  JSON snapshot of every registered lock and the
//	               store's per-stripe heatmap (?top=N for more stripes)
//	/metrics       the same counters in Prometheus text format
//	/debug/vars    expvar, with the registry published as "rwsync"
//
// Background traffic keeps the counters moving: skewed reads and a
// trickle of writes over the striped store (so the heatmap's per-stripe
// entry counts fill in) and an administrative config writer on a stats-enabled MWWP — the
// writer-priority lock the example's batch mode measures.  A stall
// watchdog with a 1s threshold logs any wedged writer and bumps the
// stalls counter the endpoints serve.
func serve(addr string) {
	// The serving store: 64 stripes on the default SlimBravo locks.
	store := rwmap.New[string, string](rwmap.WithStripes(64))

	// The administrative config lock: writer-priority, instrumented.
	cfgStats := &rwlock.LockStats{}
	cfgLock := rwlock.NewMWWP(rwlock.WithStats(cfgStats))
	cfg := map[string]string{"mode": "normal"}

	reg := rwstats.NewRegistry()
	if err := reg.RegisterLock("config(MWWP)", cfgStats); err != nil {
		log.Fatal(err)
	}
	if err := reg.RegisterMap("store", store); err != nil {
		log.Fatal(err)
	}
	if err := reg.PublishExpvar("rwsync"); err != nil {
		log.Fatal(err)
	}
	wd, err := reg.StartWatchdog(rwstats.WatchdogConfig{
		Threshold: time.Second,
		OnStall: func(s rwstats.Stall) {
			log.Printf("STALL: lock %q blocked at the %s layer for %v", s.Lock, s.Layer, s.Duration)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer wd.Stop()

	// Background traffic: skewed reads (a few hot keys draw most
	// lookups), a trickle of store writes, and periodic config updates
	// read by every request loop.
	for g := 0; g < 4; g++ {
		go func(seed uint64) {
			r := rand.New(rand.NewPCG(seed, 0))
			for i := 0; ; i++ {
				var key string
				if r.IntN(100) < 80 {
					key = fmt.Sprintf("hot-%d", r.IntN(4))
				} else {
					key = fmt.Sprintf("key-%d", r.IntN(4096))
				}
				if r.IntN(100) < 10 {
					store.Put(key, time.Now().Format(time.RFC3339Nano))
				} else {
					store.Get(key)
				}
				rt := cfgLock.RLock()
				_ = cfg["mode"]
				cfgLock.RUnlock(rt)
				if i%1024 == 0 {
					time.Sleep(time.Millisecond) // keep the demo polite
				}
			}
		}(uint64(g) + 1)
	}
	go func() {
		for i := 0; ; i++ {
			wt := cfgLock.Lock()
			cfg["mode"] = fmt.Sprintf("generation-%d", i)
			cfgLock.Unlock(wt)
			time.Sleep(50 * time.Millisecond)
		}
	}()

	mux := http.NewServeMux()
	mux.Handle("/debug/rwsync", reg)
	mux.Handle("/metrics", reg.Prometheus())
	mux.Handle("/debug/vars", expvar.Handler())
	log.Printf("kvstore serving observability on http://%s/debug/rwsync (JSON), /metrics (Prometheus), /debug/vars (expvar)", addr)
	log.Fatal(http.ListenAndServe(addr, mux))
}
