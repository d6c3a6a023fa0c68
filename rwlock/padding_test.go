package rwlock

import (
	"fmt"
	"testing"
	"unsafe"
)

// False-sharing audit: every hot word a goroutine spins on, stamps, or
// publishes through must sit on its own cache line, or the package's
// RMR story is fiction — a waiter's re-read would be invalidated by
// its neighbor's unrelated store.  The load-bearing cases are the
// per-reader/per-slot words: Bravo's visible-readers table and the
// epoch stamp slots are ARRAYS of hot words, one per concurrent
// reader, where a misplaced field turns neighboring readers into a
// single contended line.  The assertions are offsets and sizes, so a
// refactor that reorders fields or shrinks a pad fails here instead
// of as a silent throughput regression.

const cacheLine = 64

// TestWaitCellPadding: the wait word is the package's universal hot
// word (readerSlots and the Anderson array are []waitCell, so their
// per-slot isolation IS this layout).  The word must open the struct
// alone on its line, the cold parking state must start on the next
// line, and the total size must be a whole number of lines so array
// elements never share.
func TestWaitCellPadding(t *testing.T) {
	var c waitCell
	if off := unsafe.Offsetof(c.v); off != 0 {
		t.Errorf("waitCell.v at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(c.park); off != cacheLine {
		t.Errorf("waitCell.park at offset %d, want %d (parking state must not share the wait word's line)", off, cacheLine)
	}
	if sz := unsafe.Sizeof(c); sz%cacheLine != 0 {
		t.Errorf("sizeof(waitCell) = %d, not a multiple of %d (adjacent slots in []waitCell would share a line)", sz, cacheLine)
	}
}

// TestReaderTablePadding: the shared arena is the []waitCell layout
// again (per-slot isolation comes from waitCell's audited size), but
// the table HEADER matters once the arena is process-shared: every
// fast-path claim loads mask and the slice header, so the id counter
// — RMW'd by every lock construction — must sit on its own line, or
// a grid build would invalidate every running reader's probe loads.
func TestReaderTablePadding(t *testing.T) {
	var rt ReaderTable
	if off := unsafe.Offsetof(rt.mask); off != 0 {
		t.Errorf("ReaderTable.mask at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(rt.nextID); off%cacheLine != 0 {
		t.Errorf("ReaderTable.nextID at offset %d, want a %d-byte boundary (construction traffic must not share the claim path's header line)", off, cacheLine)
	}
	if sz := unsafe.Sizeof(rt); sz%cacheLine != 0 {
		t.Errorf("sizeof(ReaderTable) = %d, not a multiple of %d", sz, cacheLine)
	}
	tbl := DefaultReaderTable()
	if n := tbl.Slots(); n&(n-1) != 0 || n < 8 {
		t.Errorf("DefaultReaderTable has %d slots, want a power of two >= 8", n)
	}
}

// TestEpochSlotPadding: the stamp word (the slot's embedded cell) is
// the word the zero-RMW read passage exists for — a reader's stamp
// must dirty only its own line.  idx is read-only after registration
// but still must not pull a neighbor's stamp onto its line, hence the
// whole-line slot size.
func TestEpochSlotPadding(t *testing.T) {
	var s epochSlot
	if off := unsafe.Offsetof(s.cell); off != 0 {
		t.Errorf("epochSlot.cell at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(s.idx); off%cacheLine != 0 {
		t.Errorf("epochSlot.idx at offset %d, want a %d-byte boundary (must not share the stamp word's line)", off, cacheLine)
	}
	if sz := unsafe.Sizeof(s); sz%cacheLine != 0 {
		t.Errorf("sizeof(epochSlot) = %d, not a multiple of %d", sz, cacheLine)
	}
}

// TestEpochPrivSlotPadding: the per-P lease cache is indexed by P, so
// adjacent entries belong to different cores — an entry that shared a
// line with its neighbor would put two Ps' lease traffic on one line
// and reintroduce exactly the coherence cost the cache avoids.
func TestEpochPrivSlotPadding(t *testing.T) {
	var p epochPrivSlot
	if off := unsafe.Offsetof(p.s); off != 0 {
		t.Errorf("epochPrivSlot.s at offset %d, want 0", off)
	}
	if sz := unsafe.Sizeof(p); sz%cacheLine != 0 {
		t.Errorf("sizeof(epochPrivSlot) = %d, not a multiple of %d (adjacent Ps' cache entries would share a line)", sz, cacheLine)
	}
}

// TestEpochGlobalPadding: the global epoch word is loaded by every
// fast-path reader; the registry pointer and the writer-side fields
// after it must live on other lines.
func TestEpochGlobalPadding(t *testing.T) {
	var e Epoch
	if off := unsafe.Offsetof(e.global); off != 0 {
		t.Errorf("Epoch.global at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(e.slots); off%cacheLine != 0 {
		t.Errorf("Epoch.slots at offset %d, want a %d-byte boundary", off, cacheLine)
	}
	if off := unsafe.Offsetof(e.inner); off%cacheLine != 0 {
		t.Errorf("Epoch.inner at offset %d, want a %d-byte boundary (cold state must not share the registry pointer's line)", off, cacheLine)
	}
	if sz := unsafe.Sizeof(paddedInt64{}); sz != cacheLine {
		t.Errorf("sizeof(paddedInt64) = %d, want %d", sz, cacheLine)
	}
}

// TestSWWPCoreCounterLine: the Figure 1 counters C[0], C[1] and EC
// are only ever fetch&added, never waited on, so they share one line
// on purpose — a reader's exit adds and a writer's waiting-room adds
// then pay one line transfer per run, not one per add.  That line
// must start on a line boundary and hold no word anyone waits on or
// reads on every passage: not D, not a permit or gate cell.
func TestSWWPCoreCounterLine(t *testing.T) {
	var l swwpCore
	line := unsafe.Offsetof(l.c)
	if line%cacheLine != 0 {
		t.Errorf("swwpCore.c at offset %d, want a %d-byte boundary", line, cacheLine)
	}
	onLine := func(off, size uintptr) bool { return off < line+cacheLine && off+size > line }
	counters := []struct {
		name string
		off  uintptr
	}{
		{"c[0]", line},
		{"c[1]", line + unsafe.Sizeof(l.c[0])},
		{"ec", unsafe.Offsetof(l.ec)},
	}
	for _, f := range counters {
		if f.off < line || f.off+8 > line+cacheLine {
			t.Errorf("swwpCore.%s at offset %d, outside the counter line [%d, %d)", f.name, f.off, line, line+cacheLine)
		}
	}
	type span struct {
		name      string
		off, size uintptr
	}
	word := unsafe.Sizeof(l.exitPermit.v)
	cell := unsafe.Sizeof(waitCell{})
	hot := []span{
		{"d", unsafe.Offsetof(l.d), unsafe.Sizeof(l.d)},
		{"exitPermit", unsafe.Offsetof(l.exitPermit), word},
	}
	for i := uintptr(0); i < 2; i++ {
		hot = append(hot,
			span{fmt.Sprintf("permit[%d]", i), unsafe.Offsetof(l.permit) + i*cell, word},
			span{fmt.Sprintf("gate[%d]", i), unsafe.Offsetof(l.gate) + i*cell, word})
	}
	for _, f := range hot {
		if onLine(f.off, f.size) {
			t.Errorf("swwpCore.%s at offset %d shares the counter line at %d", f.name, f.off, line)
		}
		if f.name != "d" && f.off%cacheLine != 0 {
			t.Errorf("swwpCore.%s at offset %d, want a %d-byte boundary", f.name, f.off, cacheLine)
		}
	}
}

// TestMCSNodePadding: a queued writer spins on its own node's grant
// cell while its successor writes the node's next/linked words; the
// handoff words and the grant cell must not share a line.
func TestMCSNodePadding(t *testing.T) {
	var n mcsNode
	if off := unsafe.Offsetof(n.linked); off%cacheLine != 0 {
		t.Errorf("mcsNode.linked at offset %d, want a %d-byte boundary", off, cacheLine)
	}
	if off := unsafe.Offsetof(n.grant); off%cacheLine != 0 {
		t.Errorf("mcsNode.grant at offset %d, want a %d-byte boundary", off, cacheLine)
	}
	if sz := unsafe.Sizeof(n); sz%cacheLine != 0 {
		t.Errorf("sizeof(mcsNode) = %d, not a multiple of %d (pooled nodes would share lines)", sz, cacheLine)
	}
}

// TestAndersonPadding: the ticket word is fetch&added by every
// acquirer while the released word is read by TryAcquire probes; each
// needs its own line, and the slot array inherits isolation from
// waitCell's size.
func TestAndersonPadding(t *testing.T) {
	var l AndersonLock
	if off := unsafe.Offsetof(l.ticket); off != 0 {
		t.Errorf("AndersonLock.ticket at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(l.released); off != cacheLine {
		t.Errorf("AndersonLock.released at offset %d, want %d", off, cacheLine)
	}
	if off := unsafe.Offsetof(l.slots); off%cacheLine != 0 {
		t.Errorf("AndersonLock.slots at offset %d, want a %d-byte boundary", off, cacheLine)
	}
}

// TestCombineRecordPadding: a publisher spins on its record's done
// cell while the combiner writes the record's cs and next words (it
// clears cs and reads next right before the completion store); the
// done cell on the header's line would make every batch step
// invalidate every waiting publisher's spin.
func TestCombineRecordPadding(t *testing.T) {
	var r combineRecord
	if off := unsafe.Offsetof(r.done); off%cacheLine != 0 {
		t.Errorf("combineRecord.done at offset %d, want a %d-byte boundary (publisher's spin word must not share the header's line)", off, cacheLine)
	}
	if sz := unsafe.Sizeof(r); sz%cacheLine != 0 {
		t.Errorf("sizeof(combineRecord) = %d, not a multiple of %d", sz, cacheLine)
	}
}

// TestCombinerHeadPadding: the publication-list head is CASed by every
// publisher; the inner-mutex pointer and stats after it must not ride
// the same line.
func TestCombinerHeadPadding(t *testing.T) {
	var c combiner
	if off := unsafe.Offsetof(c.head); off != 0 {
		t.Errorf("combiner.head at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(c.inner); off%cacheLine != 0 {
		t.Errorf("combiner.inner at offset %d, want a %d-byte boundary", off, cacheLine)
	}
}
