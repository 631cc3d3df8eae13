package branch

import (
	"fmt"

	"cdf/internal/assoc"
)

// LoopPredictor is the "L" component of TAGE-SC-L (Seznec): it identifies
// branches that behave as fixed-trip-count loops (N-1 taken, then one
// not-taken, repeating) and predicts the exit exactly. When a loop entry is
// confident, its prediction overrides TAGE's.
type LoopPredictor struct {
	entries assoc.Table[loopEntry]
	setMask uint64 // sets-1: the set index is pc>>3's low bits

	Overrides uint64 // predictions taken from the loop predictor
}

type loopEntry struct {
	tripCount    uint32 // learned iteration count
	currentCount uint32 // iterations seen in the current execution
	confidence   uint8  // consecutive executions matching tripCount
	dir          bool   // the body direction (almost always taken)
}

// loop predictor confidence needed before overriding TAGE, and the
// minimum trip count treated as a loop (short runs are common in random
// direction streams and must not gain confidence).
const (
	loopConfident = 3
	loopMinTrip   = 4
)

// NewLoopPredictor builds a loop predictor with the given entry count,
// which must divide into a power-of-two number of sets of ways entries.
func NewLoopPredictor(entries, ways int) *LoopPredictor {
	sets := entries / max(ways, 1)
	if sets*ways != entries || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("branch: %d loop entries do not form a power-of-two number of %d-way sets", entries, ways))
	}
	return &LoopPredictor{entries: assoc.New[loopEntry](sets, ways), setMask: uint64(sets - 1)}
}

func (l *LoopPredictor) set(pc uint64) int { return int((pc >> 3) & l.setMask) }

// Predict returns (prediction, true) when a confident loop entry covers pc.
func (l *LoopPredictor) Predict(pc uint64) (taken, ok bool) {
	w := l.entries.Find(l.set(pc), pc)
	if w == nil {
		return false, false
	}
	e := &w.V
	if e.confidence < loopConfident || e.tripCount < loopMinTrip {
		return false, false
	}
	l.Overrides++
	// Predict the body direction until the known exit iteration.
	if e.currentCount+1 >= e.tripCount {
		return !e.dir, true // the exit
	}
	return e.dir, true
}

// Update trains the entry for pc with the resolved direction.
func (l *LoopPredictor) Update(pc uint64, taken bool) {
	w, hit := l.entries.Slot(l.set(pc), pc)
	if !hit {
		// Allocate lazily; track from scratch.
		l.entries.Fill(w, pc, loopEntry{dir: taken, currentCount: 1})
		return
	}
	l.entries.Touch(w)
	e := &w.V

	if taken == e.dir {
		e.currentCount++
		// A run longer than the learned trip count invalidates it.
		if e.tripCount > 0 && e.currentCount >= e.tripCount {
			if e.confidence > 0 {
				e.confidence--
			}
			e.tripCount = 0
		}
		return
	}

	// Exit observed: the run length is a candidate trip count.
	run := e.currentCount + 1
	switch {
	case run < loopMinTrip:
		// Too short to be a loop; drop any learned state.
		e.tripCount = 0
		e.confidence = 0
	case e.tripCount == run:
		if e.confidence < 7 {
			e.confidence++
		}
	default:
		e.tripCount = run
		e.confidence = 0
	}
	e.currentCount = 0
}
