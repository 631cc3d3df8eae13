package prefetch

import (
	"testing"
	"unsafe"

	"cdf/internal/assoc"
)

// TestWayLayout keeps a stream table way at 48 bytes, the size of the
// entry it replaced: OnMiss scans all 64 ways on every trained L1D miss.
func TestWayLayout(t *testing.T) {
	if n := unsafe.Sizeof(assoc.Way[stream]{}); n != 48 {
		t.Fatalf("unsafe.Sizeof(assoc.Way[stream]{}) = %d bytes, want 48", n)
	}
}

func TestStreamDetectsAscending(t *testing.T) {
	s := New(Default())
	var issued []uint64
	base := uint64(0x100000 / 64)
	for i := uint64(0); i < 8; i++ {
		issued = append(issued, s.OnMiss(base+i)...)
	}
	if len(issued) == 0 {
		t.Fatal("ascending stream produced no prefetches")
	}
	// Prefetches must be ahead of the trigger.
	for _, l := range issued {
		if l <= base {
			t.Fatalf("prefetch %d not ahead of stream base %d", l, base)
		}
	}
}

func TestStreamDetectsDescending(t *testing.T) {
	s := New(Default())
	var issued []uint64
	base := uint64(0x100000/64 + 100)
	for i := uint64(0); i < 8; i++ {
		issued = append(issued, s.OnMiss(base-i)...)
	}
	if len(issued) == 0 {
		t.Fatal("descending stream produced no prefetches")
	}
	for _, l := range issued {
		if l >= base {
			t.Fatalf("prefetch %d went above a descending stream's start %d", l, base)
		}
	}
}

func TestStreamRequiresTraining(t *testing.T) {
	s := New(Default())
	if got := s.OnMiss(100); len(got) != 0 {
		t.Fatal("first miss must not prefetch")
	}
	if got := s.OnMiss(101); len(got) != 0 {
		t.Fatal("second miss is still below the training threshold")
	}
}

func TestStreamIgnoresRandom(t *testing.T) {
	s := New(Default())
	rng := uint64(7)
	total := 0
	for i := 0; i < 200; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		total += len(s.OnMiss(rng % (1 << 22)))
	}
	if total > 10 {
		t.Fatalf("random misses produced %d prefetches", total)
	}
}

func TestStreamConfinedToRegion(t *testing.T) {
	cfg := Default()
	s := New(cfg)
	// Train right at the end of a 4KB region (64 lines of 64B).
	regionLines := uint64(1) << (cfg.RegionBits - 6)
	base := 5 * regionLines
	end := base + regionLines - 3
	var issued []uint64
	for i := uint64(0); i < 3; i++ {
		issued = append(issued, s.OnMiss(end+i)...)
	}
	for _, l := range issued {
		if l >= base+regionLines {
			t.Fatalf("prefetch %d crossed the region boundary %d", l, base+regionLines)
		}
	}
}

func TestFDPRaisesDegreeWhenAccurate(t *testing.T) {
	cfg := Default()
	cfg.Interval = 32
	s := New(cfg)
	d0 := s.Degree()
	base := uint64(1000)
	for i := uint64(0); i < 400; i++ {
		for _, p := range s.OnMiss(base + i) {
			_ = p
			s.OnPrefetchUseful()
		}
	}
	if s.Degree() <= d0 {
		t.Fatalf("degree %d did not rise from %d despite perfect accuracy", s.Degree(), d0)
	}
	if s.Degree() > cfg.MaxDegree {
		t.Fatalf("degree %d above max", s.Degree())
	}
}

func TestFDPLowersDegreeWhenInaccurate(t *testing.T) {
	cfg := Default()
	cfg.Interval = 32
	s := New(cfg)
	d0 := s.Degree()
	base := uint64(1000)
	for i := uint64(0); i < 400; i++ {
		s.OnMiss(base + i) // never report useful
	}
	if s.Degree() >= d0 {
		t.Fatalf("degree %d did not fall from %d with zero accuracy", s.Degree(), d0)
	}
	if s.Degree() < cfg.MinDegree {
		t.Fatal("degree below min")
	}
}

func TestStreamTableEviction(t *testing.T) {
	cfg := Default()
	cfg.Streams = 2
	s := New(cfg)
	// Train streams in three distinct regions; only 2 table entries exist,
	// so one must be evicted and re-training must still work.
	for r := uint64(0); r < 3; r++ {
		base := r * 1000000
		for i := uint64(0); i < 4; i++ {
			s.OnMiss(base + i)
		}
	}
	if s.fdp.TotalIssued == 0 {
		t.Fatal("eviction broke training entirely")
	}
}

func TestRepeatMissIsNoSignal(t *testing.T) {
	s := New(Default())
	s.OnMiss(500)
	s.OnMiss(501)
	before := s.fdp.TotalIssued
	if got := s.OnMiss(501); len(got) != 0 {
		t.Fatal("repeat miss should not prefetch")
	}
	if s.fdp.TotalIssued != before {
		t.Fatal("repeat miss should not count as issued")
	}
}

// TestStreamOnMissReusesResult checks that a trained stream issues its
// prefetches without allocating: OnMiss returns a buffer it reuses.
func TestStreamOnMissReusesResult(t *testing.T) {
	s := New(Default())
	line := uint64(0x100000 / 64)
	for i := 0; i < 4; i++ {
		s.OnMiss(line)
		line++
	}
	issued := 0
	allocs := testing.AllocsPerRun(8, func() {
		issued += len(s.OnMiss(line))
		line++
	})
	if issued == 0 {
		t.Fatal("trained stream issued no prefetches")
	}
	if allocs != 0 {
		t.Fatalf("OnMiss allocates %v times per call", allocs)
	}
}
