package front

import "testing"

// TestThrottleThresholds pins the FDP policy the FDIP throttle shares with
// the stream prefetcher: accuracy ≥ 0.75 raises the degree, twice when the
// late fraction exceeds 0.25; accuracy < 0.40 lowers it; the degree stays
// within [MinDegree, MaxDegree]; and nothing moves before a full interval.
func TestThrottleThresholds(t *testing.T) {
	type window struct {
		issued, useful, late uint64
		batch                bool // issue all at once instead of one by one
	}
	cases := []struct {
		name       string
		windows    []window
		want       int
		ups, downs uint64
	}{
		{"accurate raises", []window{{issued: 20, useful: 15}}, 3, 1, 0},
		{"just below 0.75 holds", []window{{issued: 20, useful: 14}}, 2, 0, 0},
		{"late at 0.25 raises once", []window{{issued: 20, useful: 10, late: 5}}, 3, 1, 0},
		{"late above 0.25 raises twice", []window{{issued: 20, useful: 5, late: 10}}, 4, 2, 0},
		{"inaccurate lowers", []window{{issued: 20, useful: 7}}, 1, 0, 1},
		{"0.40 holds", []window{{issued: 20, useful: 8}}, 2, 0, 0},
		{"partial interval holds", []window{{issued: 19, useful: 19}}, 2, 0, 0},
		{"clamped at max", []window{{issued: 20, late: 20}, {issued: 20, late: 20}}, 4, 2, 0},
		{"double raise clamped at max", []window{{issued: 20, useful: 15}, {issued: 20, late: 20}}, 4, 2, 0},
		{"clamped at min", []window{{issued: 20}, {issued: 20}}, 1, 0, 1},
		{"batch evaluates once", []window{{issued: 40, useful: 40, batch: true}}, 3, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			thr := NewThrottle(Config{MinDegree: 1, MaxDegree: 4, ThrottleInterval: 20})
			if d := thr.Degree(); d != 2 {
				t.Fatalf("initial degree %d, want mid-range 2", d)
			}
			for _, w := range tc.windows {
				for i := uint64(0); i < w.useful; i++ {
					thr.OnUseful()
				}
				for i := uint64(0); i < w.late; i++ {
					thr.OnLate()
				}
				if w.batch {
					thr.OnIssued(w.issued)
					continue
				}
				for i := uint64(0); i < w.issued; i++ {
					thr.OnIssued(1)
				}
			}
			if thr.Degree() != tc.want || thr.DegreeUps != tc.ups || thr.DegreeDowns != tc.downs {
				t.Fatalf("degree %d (ups %d, downs %d), want %d (ups %d, downs %d)",
					thr.Degree(), thr.DegreeUps, thr.DegreeDowns, tc.want, tc.ups, tc.downs)
			}
		})
	}
}
