//go:build !race

// The broken lock below lets guard-hot's readers and writers race on
// the table rows on purpose, so the race detector would stop the test
// before the oracle could judge it.

package main

import (
	"testing"
	"time"

	"rwsync/rwlock"
)

// deadline bounds how long the broken-lock test looks for a fault.
const deadline = 30 * time.Second

// noLock is a do-nothing RWLock: every acquisition succeeds at once.
type noLock struct{}

func (noLock) Lock() rwlock.WToken   { return rwlock.WToken{} }
func (noLock) Unlock(rwlock.WToken)  {}
func (noLock) RLock() rwlock.RToken  { return rwlock.RToken{} }
func (noLock) RUnlock(rwlock.RToken) {}

// TestOracleCatchesBrokenLock runs guard-hot at smoke size behind a
// do-nothing lock and requires a non-zero error rate: torn rows, counts
// going back, or writes lost from the end-of-run tally.  The table holds
// plain words, so the unsynchronised access cannot crash the runtime
// (a Go map behind the same lock could).
func TestOracleCatchesBrokenLock(t *testing.T) {
	sp := smoke(t, "guard-hot")
	streams := sp.streams(1, workers)
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		r := runPhase(newGuard(sp, noLock{}), streams, 1, false)
		if r.failed > 0 {
			t.Logf("error_rate %g (%d of %d); first: %s", frac(r.failed, r.attempted), r.failed, r.attempted, r.firstFail)
			return
		}
	}
	t.Fatalf("guard-hot behind a do-nothing lock showed error_rate 0 for %v", deadline)
}
