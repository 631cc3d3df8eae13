package branch

import "fmt"

// LoopPredictor is the "L" component of TAGE-SC-L (Seznec): it identifies
// branches that behave as fixed-trip-count loops (N-1 taken, then one
// not-taken, repeating) and predicts the exit exactly. When a loop entry is
// confident, its prediction overrides TAGE's.
type LoopPredictor struct {
	entries []loopEntry
	ways    int
	setMask uint64 // sets-1: the set index is pc>>3's low bits
	clock   uint64

	Overrides uint64 // predictions taken from the loop predictor
	Correct   uint64
}

type loopEntry struct {
	valid bool
	tag   uint64

	tripCount    uint32 // learned iteration count
	currentCount uint32 // iterations seen in the current execution
	confidence   uint8  // consecutive executions matching tripCount
	dir          bool   // the body direction (almost always taken)
	lru          uint64
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
	sets := 0
	if ways > 0 {
		sets = entries / ways
	}
	if sets <= 0 || sets*ways != entries || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("branch: %d loop entries do not form a power-of-two number of %d-way sets", entries, ways))
	}
	return &LoopPredictor{entries: make([]loopEntry, entries), ways: ways, setMask: uint64(sets - 1)}
}

func (l *LoopPredictor) set(pc uint64) []loopEntry {
	s := int((pc >> 3) & l.setMask)
	return l.entries[s*l.ways : (s+1)*l.ways]
}

// Predict returns (prediction, true) when a confident loop entry covers pc.
func (l *LoopPredictor) Predict(pc uint64) (taken, ok bool) {
	set := l.set(pc)
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == pc && e.confidence >= loopConfident && e.tripCount >= loopMinTrip {
			l.Overrides++
			// Predict the body direction until the known exit iteration.
			if e.currentCount+1 >= e.tripCount {
				return !e.dir, true // the exit
			}
			return e.dir, true
		}
	}
	return false, false
}

// Update trains the entry for pc with the resolved direction.
func (l *LoopPredictor) Update(pc uint64, taken bool) {
	l.clock++
	set := l.set(pc)
	var e *loopEntry
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			e = &set[i]
			break
		}
	}
	if e == nil {
		// Allocate lazily; track from scratch.
		e = &set[0]
		for i := range set {
			if !set[i].valid {
				e = &set[i]
				break
			}
			if set[i].lru < e.lru {
				e = &set[i]
			}
		}
		*e = loopEntry{valid: true, tag: pc, dir: taken, currentCount: 1, lru: l.clock}
		return
	}
	e.lru = l.clock

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
