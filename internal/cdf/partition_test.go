package cdf

import (
	"fmt"
	"testing"
)

// TestPartitionReplayMatchesNoteStall checks the idle skip's partition
// replay against real NoteStall calls: for every logged per-cycle call
// sequence, starting counters, threshold and clamp state, ReplayBound plus
// Replay over k cycles must leave the partition exactly as k cycles of the
// logged calls do, and the bound must stop right before the first cycle
// whose calls move the desired split.
func TestPartitionReplayMatchesNoteStall(t *testing.T) {
	const maxK = 40
	logs := [][]bool{
		{false},
		{true},
		{true, false, false},
		{false, false, true},
		{true, true, false},
	}
	starts := [][2]uint64{{0, 0}, {1, 0}, {0, 1}, {2, 1}, {1, 3}}
	passedThrough := 0
	for _, log := range logs {
		for _, thresh := range []uint64{1, 2, 4} {
			for _, clamp := range []string{"min", "max", "mid"} {
				for _, start := range starts {
					p := NewPartition(96, 8, thresh)
					switch clamp {
					case "min":
						p.SetDesired(p.MinCrit)
					case "max":
						p.SetDesired(p.Total - p.MinNonCrit)
					case "mid":
						p.SetDesired(p.Total / 2)
					}
					p.critStalls, p.nonCritStalls = start[0], start[1]
					if start[0] >= start[1]+thresh || start[1] >= start[0]+thresh {
						continue // not a state NoteStall leaves behind
					}
					p.stallLogN = copy(p.stallLog[:], log)
					name := fmt.Sprintf("log=%v/thresh=%d/%s/start=%v", log, thresh, clamp, start)

					n, crit, non, ok := p.ReplayBound(maxK)
					if !ok || n > maxK {
						t.Fatalf("%s: ReplayBound(%d) = %d, ok=%v", name, maxK, n, ok)
					}
					ref := *p
					resets := 0
					for k := uint64(0); k <= n; k++ {
						got := *p
						got.Replay(k)
						if got != ref {
							t.Fatalf("%s: after %d cycles replay gives\n %+v\nNoteStall gives\n %+v", name, k, got, ref)
						}
						if k == n {
							if gc, gn := got.Stalls(); gc != crit || gn != non {
								t.Fatalf("%s: ReplayBound counters (%d,%d), replay (%d,%d)", name, crit, non, gc, gn)
							}
							break
						}
						for _, critical := range log {
							ref.NoteStall(critical)
							if ref.critStalls == 0 && ref.nonCritStalls == 0 {
								resets++
							}
						}
						ref.stallLog, ref.stallLogN = p.stallLog, p.stallLogN
					}
					if n < maxK {
						// The next cycle must really resize.
						for _, critical := range log {
							ref.NoteStall(critical)
						}
						if ref.Grows == p.Grows && ref.Shrinks == p.Shrinks {
							t.Fatalf("%s: replay stopped after %d cycles, but cycle %d does not resize", name, n, n+1)
						}
					}
					if resets > 0 {
						passedThrough++
					}
				}
			}
		}
	}
	if passedThrough == 0 {
		t.Fatal("no case replayed through a no-op threshold crossing")
	}
}

// TestPartitionReplayFrozenAndOverflow checks the two replay edge cases: a
// frozen partition replays as a no-op, and an overflowed log refuses.
func TestPartitionReplayFrozenAndOverflow(t *testing.T) {
	p := NewPartition(96, 8, 1)
	p.Frozen = true
	p.ResetStallLog()
	for _, critical := range []bool{true, false, true} {
		p.NoteStall(critical)
	}
	before := *p
	if n, crit, non, ok := p.ReplayBound(50); !ok || n != 50 || crit != 0 || non != 0 {
		t.Fatalf("frozen ReplayBound(50) = %d, (%d,%d), ok=%v; want 50, (0,0), true", n, crit, non, ok)
	}
	p.Replay(50)
	if *p != before {
		t.Fatalf("frozen replay changed the partition:\n %+v\nwant\n %+v", *p, before)
	}

	q := NewPartition(96, 8, 4)
	q.ResetStallLog()
	for i := 0; i < stallLogCap+1; i++ {
		q.NoteStall(i%2 == 0)
	}
	if _, _, _, ok := q.ReplayBound(10); ok {
		t.Fatal("ReplayBound accepted an overflowed log")
	}
	q.ResetStallLog()
	q.NoteStall(true)
	if n, _, _, ok := q.ReplayBound(10); !ok || n == 0 {
		t.Fatalf("ReplayBound after ResetStallLog = %d, ok=%v; want a bound", n, ok)
	}
}
