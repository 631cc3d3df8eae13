// Package prefetch implements the baseline's stream prefetcher with
// Feedback Directed Prefetching (FDP) throttling, per Table 1 of the paper
// (64 streams, always on, FDP-throttled).
package prefetch

// Config controls the stream prefetcher.
type Config struct {
	Streams     int    // stream table entries
	RegionBits  uint   // streams are confined to 2^RegionBits-byte regions
	TrainThresh int    // consecutive unit-stride misses before issuing
	MinDegree   int    // FDP lower bound on prefetch degree
	MaxDegree   int    // FDP upper bound on prefetch degree
	Interval    uint64 // FDP evaluation interval, in issued prefetches
	LineBytes   uint64
}

// Default returns the Table 1 configuration: 64 streams with FDP.
func Default() Config {
	return Config{
		Streams:     64,
		RegionBits:  12, // 4KB training regions
		TrainThresh: 2,
		MinDegree:   1,
		MaxDegree:   8,
		Interval:    512,
		LineBytes:   64,
	}
}

type streamEntry struct {
	valid    bool
	region   uint64
	lastLine uint64
	dir      int64 // +1 ascending, -1 descending, 0 untrained
	conf     int
	lru      uint64
}

// Stream is the stream prefetcher. It is trained on demand-miss line
// addresses and returns the line addresses to prefetch.
type Stream struct {
	cfg   Config
	table []streamEntry
	clock uint64
	fdp   FDP

	// frozen suspends FDP feedback (see Freeze).
	frozen bool
}

// New returns a stream prefetcher for cfg.
func New(cfg Config) *Stream {
	return &Stream{cfg: cfg, table: make([]streamEntry, cfg.Streams),
		fdp: NewFDP(cfg.MinDegree, cfg.MaxDegree, cfg.Interval)}
}

// Degree returns the current FDP-adjusted prefetch degree.
func (s *Stream) Degree() int { return s.fdp.Degree() }

// OnMiss trains the prefetcher with a demand-miss line address and returns
// the line addresses to prefetch (possibly none).
func (s *Stream) OnMiss(lineAddr uint64) []uint64 {
	region := (lineAddr * s.cfg.LineBytes) >> s.cfg.RegionBits
	s.clock++

	var e *streamEntry
	for i := range s.table {
		t := &s.table[i]
		if t.valid && t.region == region {
			e = t
			break
		}
	}
	if e == nil {
		victim := &s.table[0]
		for i := range s.table {
			t := &s.table[i]
			if !t.valid {
				victim = t
				break
			}
			if t.lru < victim.lru {
				victim = t
			}
		}
		*victim = streamEntry{valid: true, region: region, lastLine: lineAddr, lru: s.clock}
		return nil
	}
	e.lru = s.clock

	switch {
	case lineAddr == e.lastLine+1:
		if e.dir == 1 {
			e.conf++
		} else {
			e.dir, e.conf = 1, 1
		}
	case lineAddr == e.lastLine-1:
		if e.dir == -1 {
			e.conf++
		} else {
			e.dir, e.conf = -1, 1
		}
	case lineAddr == e.lastLine:
		// Repeat miss (MSHR merge upstream); no training signal.
		return nil
	default:
		// Stride break within the region: retrain direction from scratch.
		e.dir, e.conf = 0, 0
	}
	e.lastLine = lineAddr
	if e.conf < s.cfg.TrainThresh || e.dir == 0 {
		return nil
	}

	degree := s.fdp.Degree()
	out := make([]uint64, 0, degree)
	for i := 1; i <= degree; i++ {
		next := int64(lineAddr) + e.dir*int64(i)
		if next < 0 {
			break
		}
		// Stay within the training region: streams do not cross 4KB bounds
		// (page-confined, as hardware prefetchers are).
		if (uint64(next)*s.cfg.LineBytes)>>s.cfg.RegionBits != region {
			break
		}
		out = append(out, uint64(next))
	}
	if !s.frozen {
		s.fdp.OnIssued(uint64(len(out)))
	}
	return out
}

// Freeze suspends (or resumes) FDP feedback. Functional warming trains
// stream entries and issues fills, but its prefetches complete instantly,
// so FDP's timeliness signal — the late merges that push the degree up in
// any real run — cannot exist there, and its accuracy ratio is biased by
// fills the warm hierarchy filters out. Adapting on that evidence drives
// the degree to the minimum during every fast-forward gap; a frozen
// throttle carries the last cycle-accurately chosen degree across instead.
func (s *Stream) Freeze(on bool) { s.frozen = on }

// OnPrefetchUseful records a demand hit on a prefetched line.
func (s *Stream) OnPrefetchUseful() {
	if s.frozen {
		return
	}
	s.fdp.OnUseful()
}

// OnPrefetchLate records a demand access that merged onto a still-pending
// prefetch (the prefetch was correct but not timely).
func (s *Stream) OnPrefetchLate() { s.fdp.OnLate() }
