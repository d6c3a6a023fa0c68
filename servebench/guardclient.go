package main

import (
	"sync"
	"time"

	"rwsync/rwlock"
)

// record is one row of guard-hot's table.  A write sets both words to
// the row's next count, so a reader that sees them differ saw a write
// half done.
type record struct{ A, B uint64 }

// table is the surface guard-hot drives.  *rwlock.Guard[[]record]
// implements it, and so does the reference rwmutexTable.
type table interface {
	Read(f func([]record))
	Write(f func(*[]record))
}

// guardInstance is one table and the clients driving it.
type guardInstance struct {
	sp      *spec
	t       table
	recs    []record // the table's rows, read by the end-of-run check
	clients []*guardClient
}

// newGuard builds the table behind rwlock.NewGuard over l; nil l is
// the Guard's default lock (MWSF).
func newGuard(sp *spec, l rwlock.RWLock) *guardInstance {
	recs := newRecords(sp)
	return &guardInstance{sp: sp, t: rwlock.NewGuard(l, recs), recs: recs}
}

// newRecords returns the table's rows at count 0.  Writing every row
// faults its pages in during set-up, not in the first timed ops.
func newRecords(sp *spec) []record {
	recs := make([]record, sp.keys)
	for i := range recs {
		recs[i] = record{}
	}
	return recs
}

func (in *guardInstance) newClients(streams [][]uint64) []client {
	in.clients = nil
	out := make([]client, len(streams))
	for i, s := range streams {
		c := &guardClient{worker: newWorker(s), in: in, last: make([]uint64, in.sp.keys)}
		c.readFn = c.read
		c.writeFn = c.write
		in.clients = append(in.clients, c)
		out[i] = c
	}
	return out
}

// guardClient is one worker's client of a guardInstance.
type guardClient struct {
	worker
	in      *guardInstance
	last    []uint64 // highest count this client has seen, per row
	i       int      // row of the op in flight
	a, b    uint64   // the row's words as the op found them
	next    uint64   // the count a write stored
	readFn  func([]record)
	writeFn func(*[]record)
	written int // writes this client made
	_       [128]byte
}

func (c *guardClient) read(t []record) {
	r := &t[c.i]
	c.a, c.b = r.A, r.B
}

func (c *guardClient) write(t *[]record) {
	r := &(*t)[c.i]
	c.a, c.b = r.A, r.B
	c.next = c.a + 1
	r.A = c.next
	r.B = c.next
}

func (c *guardClient) do(e uint64, s sampling) {
	c.i = int(e & keyMask)
	write := e>>32 == opWrite
	timed := s&opClass[e>>32] != 0
	var t0 time.Duration
	if timed {
		t0 = now()
	}
	if write {
		c.in.t.Write(c.writeFn)
	} else {
		c.in.t.Read(c.readFn)
	}
	if timed {
		if write {
			c.sample(&c.writes, now()-t0)
		} else {
			c.sample(&c.reads, now()-t0)
		}
	}
	if c.a != c.b {
		c.fail("row %d torn: %d != %d", c.i, c.a, c.b)
	}
	if c.a < c.last[c.i] {
		c.fail("row %d went back from %d to %d", c.i, c.last[c.i], c.a)
	}
	c.last[c.i] = c.a
	if write {
		c.written++
		c.last[c.i] = c.next
	}
}

// doTraced is do: guard-hot's layer numbers come from the traced
// run's lock statistics, not from spans.
func (c *guardClient) doTraced(e uint64, s sampling) { c.do(e, s) }

// check verifies the quiescent table against the clients' tallies.
func (in *guardInstance) check() (checks, fails int, first string) {
	var w worker
	writes, sum := 0, uint64(0)
	for _, c := range in.clients {
		writes += c.written
	}
	for i, r := range in.recs {
		checks++
		if r.A != r.B {
			w.fail("end: row %d torn: %d != %d", i, r.A, r.B)
		}
		sum += r.A
		for _, c := range in.clients {
			if r.A < c.last[i] {
				w.fail("end: row %d is at %d, below the %d a worker saw", i, r.A, c.last[i])
			}
		}
	}
	checks++
	if sum != uint64(writes) {
		w.fail("end: rows count %d writes, workers made %d", sum, writes)
	}
	return checks, w.fails, w.firstFail
}

// rwmutexTable is the textbook design: the table behind one
// sync.RWMutex.
type rwmutexTable struct {
	mu sync.RWMutex
	t  []record
}

func (r *rwmutexTable) Read(f func([]record)) {
	r.mu.RLock()
	f(r.t)
	r.mu.RUnlock()
}

func (r *rwmutexTable) Write(f func(*[]record)) {
	r.mu.Lock()
	f(&r.t)
	r.mu.Unlock()
}
