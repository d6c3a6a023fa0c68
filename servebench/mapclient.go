package main

import (
	"sync"
	"sync/atomic"
	"time"

	"rwsync/rwmap"
)

// val is a map value.  Key tags the value with its own key.  Ver is
// the key's version: the incarnation (which creation of the key this
// is) in the high 32 bits and the count of updates to this
// incarnation in the low 32.  Incarnations come from one counter
// bumped under the stripe lock, so a key's versions only grow.
type val struct{ Key, Ver uint64 }

// store is the map surface the benchmark drives.
// *rwmap.Map[uint64, val] implements it, and so do the reference
// designs below.
type store interface {
	Get(k uint64) (val, bool)
	Put(k uint64, v val)
	Update(k uint64, f func(v val, ok bool) (val, bool))
	GetOrCompute(k uint64, fill func() val) (val, bool)
	Delete(k uint64)
	Len() int
	Range(f func(k uint64, v val) bool)
}

// mapInstance is one prefilled map and the clients driving it.
type mapInstance struct {
	sp      *spec
	m       store
	rw      *rwmap.Map[uint64, val] // the same map when it is an rwmap; nil for the references
	incs    atomic.Uint64
	traced  bool          // clients keep spans for the traced run
	clock   time.Duration // cost of one clock read, taken off each span
	clients []*mapClient
}

func newRWMap(sp *spec) *mapInstance {
	m := rwmap.New[uint64, val](rwmap.WithStripes(sp.stripes))
	in := newMapInstance(sp, m)
	in.rw = m
	return in
}

// newMapInstance prefills m with every key at version 0.
func newMapInstance(sp *spec, m store) *mapInstance {
	for k := range uint64(sp.keys) {
		m.Put(k, val{Key: k})
	}
	return &mapInstance{sp: sp, m: m}
}

func (in *mapInstance) newClients(streams [][]uint64) []client {
	in.clients = nil
	out := make([]client, len(streams))
	for i, s := range streams {
		c := &mapClient{worker: newWorker(s), in: in, last: make([]uint64, in.sp.keys)}
		c.upd = c.update
		c.fillFn = c.fill
		if in.traced {
			c.tr = newMapTrace()
		}
		in.clients = append(in.clients, c)
		out[i] = c
	}
	return out
}

// mapClient is one worker's client of a mapInstance.  The callbacks
// it hands the map record what they saw and wrote in the client's
// fields; the tallies are taken after the call returns, so a store
// that runs a callback more than once (sync.Map's CAS retry) is
// still counted once per op.
type mapClient struct {
	worker
	in     *mapInstance
	last   []uint64 // highest version this client has seen, per key
	k      uint64   // key of the op in flight
	upd    func(val, bool) (val, bool)
	fillFn func() val

	prev   val  // value the update callback saw
	prevOK bool // whether the update callback saw a value
	wrote  val  // value the last callback stored
	filled bool // whether the fill callback ran for this op

	increments, creates, deletes int
	tr                           mapTrace
	_                            [128]byte
}

func (c *mapClient) update(v val, ok bool) (val, bool) {
	c.prev, c.prevOK = v, ok
	if ok {
		v.Ver++
	} else {
		v = val{Key: c.k, Ver: c.in.incs.Add(1) << 32}
	}
	c.wrote = v
	return v, true
}

func (c *mapClient) fill() val {
	c.filled = true
	c.wrote = val{Key: c.k, Ver: c.in.incs.Add(1) << 32}
	return c.wrote
}

// see checks a value read for key k: it carries its own key, and its
// version is not below one this client saw before.
func (c *mapClient) see(k uint64, v val) {
	if v.Key != k {
		c.fail("key %d holds a value tagged %d", k, v.Key)
	}
	if v.Ver < c.last[k] {
		c.fail("key %d went back from version %#x to %#x", k, c.last[k], v.Ver)
	}
	c.last[k] = v.Ver
}

// op performs e and reports whether a Get found its key or a
// GetOrCompute loaded an existing value.  It times the library call
// when e's class is in s.
func (c *mapClient) op(e uint64, s sampling) bool {
	k := e & keyMask
	c.k = k
	kind := e >> 32
	timed := s & opClass[kind]
	var t0 time.Duration
	if timed != 0 {
		t0 = now()
	}
	switch kind {
	case opGet:
		v, ok := c.in.m.Get(k)
		if timed != 0 {
			c.sample(&c.reads, now()-t0)
		}
		if ok {
			c.see(k, v)
		}
		return ok
	case opUpdate:
		c.in.m.Update(k, c.upd)
		if timed != 0 {
			c.sample(&c.writes, now()-t0)
		}
		if c.prevOK {
			c.see(k, c.prev)
			c.increments++
		} else {
			c.creates++
		}
		c.last[k] = c.wrote.Ver
	case opGetOrCompute:
		c.filled = false
		v, loaded := c.in.m.GetOrCompute(k, c.fillFn)
		if loaded && timed&timeReads != 0 {
			c.sample(&c.reads, now()-t0)
		} else if !loaded && timed&timeWrites != 0 {
			c.sample(&c.writes, now()-t0)
		}
		if loaded == c.filled {
			c.fail("GetOrCompute(%d) loaded=%v but fill ran=%v", k, loaded, c.filled)
		}
		if !loaded {
			c.creates++
			if v != c.wrote {
				c.fail("GetOrCompute(%d) returned %+v, not the filled %+v", k, v, c.wrote)
			}
		}
		c.see(k, v)
		return loaded
	case opDelete:
		c.in.m.Delete(k)
		if timed != 0 {
			c.sample(&c.writes, now()-t0)
		}
		c.deletes++
	}
	return false
}

func (c *mapClient) do(e uint64, s sampling) { c.op(e, s) }

// check verifies the quiescent map against the clients' tallies.  It
// returns the number of checks made and the number failed.
func (in *mapInstance) check() (checks, fails int, first string) {
	var w worker
	increments, creates, deletes := 0, 0, 0
	for _, c := range in.clients {
		increments += c.increments
		creates += c.creates
		deletes += c.deletes
	}
	maxInc := in.incs.Load()
	seenInc := make([]bool, maxInc+1)
	n, sumUpdates := 0, 0
	in.m.Range(func(k uint64, v val) bool {
		n++
		checks++
		if v.Key != k {
			w.fail("end: key %d holds a value tagged %d", k, v.Key)
		}
		inc := v.Ver >> 32
		switch {
		case inc > maxInc:
			w.fail("end: key %d holds incarnation %d, never issued", k, inc)
		case inc > 0 && seenInc[inc]:
			w.fail("end: incarnation %d is live under two keys", inc)
		case inc > 0:
			seenInc[inc] = true
		}
		sumUpdates += int(v.Ver & keyMask)
		for _, c := range in.clients {
			if v.Ver < c.last[k] {
				w.fail("end: key %d is at version %#x, below the %#x a worker saw", k, v.Ver, c.last[k])
			}
		}
		return true
	})
	checks += 3
	if l := in.m.Len(); l != n {
		w.fail("end: Len() = %d but Range visited %d", l, n)
	}
	// Every update to a live incarnation is counted in its version,
	// and a Delete loses at most one entry.  Without deletes both
	// tallies must match exactly.
	if lo, hi := in.sp.keys+creates-deletes, in.sp.keys+creates; n < lo || n > hi {
		w.fail("end: %d entries, outside [%d, %d] from %d prefilled, %d created, %d deleted", n, lo, hi, in.sp.keys, creates, deletes)
	}
	if sumUpdates > increments || (deletes == 0 && sumUpdates != increments) {
		w.fail("end: live versions count %d updates, workers made %d", sumUpdates, increments)
	}
	return checks, w.fails, w.firstFail
}

// mutexMap is the textbook design: one Go map behind one
// sync.RWMutex.
type mutexMap struct {
	mu sync.RWMutex
	m  map[uint64]val
}

func newMutexMap() *mutexMap { return &mutexMap{m: make(map[uint64]val)} }

func (s *mutexMap) Get(k uint64) (val, bool) {
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

func (s *mutexMap) Put(k uint64, v val) {
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

func (s *mutexMap) Update(k uint64, f func(val, bool) (val, bool)) {
	s.mu.Lock()
	v, ok := s.m[k]
	if nv, keep := f(v, ok); keep {
		s.m[k] = nv
	} else {
		delete(s.m, k)
	}
	s.mu.Unlock()
}

func (s *mutexMap) GetOrCompute(k uint64, fill func() val) (val, bool) {
	if v, ok := s.Get(k); ok {
		return v, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[k]; ok {
		return v, true
	}
	v := fill()
	s.m[k] = v
	return v, false
}

func (s *mutexMap) Delete(k uint64) {
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

func (s *mutexMap) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

func (s *mutexMap) Range(f func(uint64, val) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, v := range s.m {
		if !f(k, v) {
			return
		}
	}
}

// syncMap is sync.Map, the standard library's read-mostly map.  Update
// is its load and compare-and-swap loop.
type syncMap struct{ m sync.Map }

func (s *syncMap) Get(k uint64) (val, bool) {
	v, ok := s.m.Load(k)
	if !ok {
		return val{}, false
	}
	return v.(val), true
}

func (s *syncMap) Put(k uint64, v val) { s.m.Store(k, v) }

func (s *syncMap) Update(k uint64, f func(val, bool) (val, bool)) {
	for {
		old, ok := s.m.Load(k)
		if !ok {
			nv, keep := f(val{}, false)
			if !keep {
				return
			}
			if _, loaded := s.m.LoadOrStore(k, nv); !loaded {
				return
			}
			continue
		}
		nv, keep := f(old.(val), true)
		if !keep {
			if s.m.CompareAndDelete(k, old) {
				return
			}
			continue
		}
		if s.m.CompareAndSwap(k, old, nv) {
			return
		}
	}
}

// GetOrCompute may run fill for a caller that then loses the store
// race: sync.Map has no single-flight fill.  No workload driving
// syncMap issues GetOrCompute.
func (s *syncMap) GetOrCompute(k uint64, fill func() val) (val, bool) {
	if v, ok := s.m.Load(k); ok {
		return v.(val), true
	}
	v, loaded := s.m.LoadOrStore(k, fill())
	return v.(val), loaded
}

func (s *syncMap) Delete(k uint64) { s.m.Delete(k) }

func (s *syncMap) Len() int {
	n := 0
	s.m.Range(func(any, any) bool { n++; return true })
	return n
}

func (s *syncMap) Range(f func(uint64, val) bool) {
	s.m.Range(func(k, v any) bool { return f(k.(uint64), v.(val)) })
}
