package prefetch

// FDP is the Feedback Directed Prefetching throttle. Every interval issued
// prefetches it computes accuracy, (useful + late) / issued: accuracy ≥ 0.75
// raises the degree (twice when more than a quarter of the prefetches were
// late), accuracy < 0.40 lowers it, always within [min, max]. The stream
// prefetcher uses it for its degree, the frontend's FDIP for its
// fetch-target-queue issue degree (front.NewThrottle).
type FDP struct {
	min, max int
	interval uint64
	degree   int

	// Current-interval accounting.
	issued uint64
	useful uint64
	late   uint64

	// Lifetime counters.
	TotalIssued uint64
	TotalUseful uint64
	TotalLate   uint64
	DegreeUps   uint64
	DegreeDowns uint64
}

// NewFDP returns a throttle for degrees min..max evaluated every interval
// issued prefetches, starting mid-range.
func NewFDP(min, max int, interval uint64) FDP {
	deg := (min + max) / 2
	if deg < min {
		deg = min
	}
	return FDP{min: min, max: max, interval: interval, degree: deg}
}

// Degree returns the current prefetch degree.
func (f *FDP) Degree() int { return f.degree }

// OnIssued records n issued prefetches, then evaluates the interval once.
func (f *FDP) OnIssued(n uint64) {
	f.issued += n
	f.TotalIssued += n
	f.maybeAdjust()
}

// OnUseful records a demand access hitting a prefetched line.
func (f *FDP) OnUseful() {
	f.useful++
	f.TotalUseful++
}

// OnLate records a demand access that merged onto a still-pending prefetch
// (the prefetch was correct but not timely).
func (f *FDP) OnLate() {
	f.late++
	f.TotalLate++
}

func (f *FDP) maybeAdjust() {
	if f.issued < f.interval {
		return
	}
	accuracy := float64(f.useful+f.late) / float64(f.issued)
	lateFrac := float64(f.late) / float64(f.issued)
	switch {
	case accuracy >= 0.75:
		if f.degree < f.max {
			f.degree++
			f.DegreeUps++
		}
		if lateFrac > 0.25 && f.degree < f.max {
			f.degree++
			f.DegreeUps++
		}
	case accuracy < 0.40:
		if f.degree > f.min {
			f.degree--
			f.DegreeDowns++
		}
	}
	f.issued, f.useful, f.late = 0, 0, 0
}
