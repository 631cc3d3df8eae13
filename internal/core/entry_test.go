package core

import (
	"testing"
	"unsafe"
)

// TestEntryLayout keeps the in-flight entry within two cache lines: it
// points at its stream record instead of copying it, and every fetch,
// recycle and backend pass touches it.
func TestEntryLayout(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 128 {
		t.Fatalf("unsafe.Sizeof(entry{}) = %d bytes, want at most 128", n)
	}
}

// TestQueueSteadyOccupancy runs a queue near a fixed occupancy, as the
// decode pipes do: over 10k push/pop pairs it must stay FIFO and move O(1)
// elements per push through compaction.
func TestQueueSteadyOccupancy(t *testing.T) {
	const live, ops = 100, 10_000
	var q queue[int]
	next, want := 0, 0
	for ; next < live; next++ {
		q.push(next)
	}
	moved := 0
	for i := 0; i < ops; i++ {
		off, n := q.off, q.len()
		q.push(next)
		next++
		if off > 0 && q.off == 0 {
			moved += n // the push compacted the n live items to the front
		}
		if v := q.popHead(); v != want {
			t.Fatalf("op %d: popped %d, want %d", i, v, want)
		}
		want++
	}
	if moved > ops {
		t.Fatalf("compaction moved %d elements over %d pushes at occupancy %d, want at most one per push", moved, ops, live)
	}
	for !q.empty() {
		if v := q.popHead(); v != want {
			t.Fatalf("drain popped %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained to %d, pushed %d", want, next)
	}
}

// TestReadyInsertOrder checks that the ready list stays in program order
// for tail, middle and head insertions, wrong-path (seq, sub) slots among
// them.
func TestReadyInsertOrder(t *testing.T) {
	c := &Core{}
	type pos struct {
		seq uint64
		sub uint32
	}
	for _, p := range []pos{
		{10, 0}, {12, 0}, {12, 1}, {12, 2}, // tail appends, wrong path behind 12
		{11, 0},          // middle
		{3, 0},           // head
		{12, 5}, {13, 0}, // tail again
		{10, 3}, // wrong-path slot behind 10, in the middle
		{12, 4}, // between two wrong-path slots
	} {
		c.readyInsert(&entry{seq: p.seq, sub: p.sub, wrongPath: p.sub > 0})
	}
	want := []pos{{3, 0}, {10, 0}, {10, 3}, {11, 0}, {12, 0}, {12, 1}, {12, 2}, {12, 4}, {12, 5}, {13, 0}}
	if len(c.readyList) != len(want) {
		t.Fatalf("ready list holds %d, want %d", len(c.readyList), len(want))
	}
	for i, w := range want {
		if e := c.readyList[i]; e.seq != w.seq || e.sub != w.sub {
			t.Fatalf("pos %d = %d.%d, want %d.%d", i, e.seq, e.sub, w.seq, w.sub)
		}
	}
}

// TestFifoCutYounger checks the LQ/SQ suffix cut: it drops exactly the
// younger suffix and counts its critical entries.
func TestFifoCutYounger(t *testing.T) {
	var f fifo
	for i := uint64(0); i < 8; i++ {
		f.push(&entry{seq: i, critical: i%2 == 1})
	}
	if crit := f.cutYounger(4, 0, false); crit != 2 || f.len() != 5 {
		t.Fatalf("strict cut: %d critical dropped, %d kept; want 2, 5", crit, f.len())
	}
	if crit := f.cutYounger(3, 0, true); crit != 1 || f.len() != 3 {
		t.Fatalf("inclusive cut: %d critical dropped, %d kept; want 1, 3", crit, f.len())
	}
	if crit := f.cutYounger(9, 0, false); crit != 0 || f.len() != 3 {
		t.Fatalf("cut past the tail dropped entries")
	}
}
