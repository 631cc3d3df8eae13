package front

import "cdf/internal/mem/prefetch"

// NewThrottle returns the FDIP issue throttle: the stream prefetcher's FDP
// policy (prefetch.FDP) applied to the fetch-target queue's issue degree
// instead of a stream's distance, starting mid-range. It persists across
// sampled-run warming gaps (owned by core.Warmer, adopted by interval
// cores), so the degree chosen by cycle-accurate evidence carries forward.
func NewThrottle(cfg Config) *prefetch.FDP {
	t := prefetch.NewFDP(cfg.MinDegree, cfg.MaxDegree, cfg.ThrottleInterval)
	return &t
}
