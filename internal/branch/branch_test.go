package branch

import (
	"testing"
	"unsafe"

	"cdf/internal/assoc"
	"cdf/internal/isa"
)

// TestWayLayout keeps a BTB way at 32 bytes, the size of the entry it
// replaced: a tag, a stamp, the valid bit and the target.
func TestWayLayout(t *testing.T) {
	if n := unsafe.Sizeof(assoc.Way[uint64]{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(assoc.Way[uint64]{}) = %d bytes, want 32", n)
	}
}

func TestTageHistoryLengthsGeometric(t *testing.T) {
	tg := NewTage(DefaultTage())
	ls := tg.HistoryLengths()
	if len(ls) != DefaultTage().NumTables {
		t.Fatalf("got %d lengths", len(ls))
	}
	if ls[0] != DefaultTage().MinHist {
		t.Errorf("first length %d, want %d", ls[0], DefaultTage().MinHist)
	}
	for i := 1; i < len(ls); i++ {
		if ls[i] <= ls[i-1] {
			t.Fatalf("lengths not strictly increasing: %v", ls)
		}
	}
	if last := ls[len(ls)-1]; last < DefaultTage().MaxHist/2 {
		t.Errorf("last length %d too short for MaxHist %d", last, DefaultTage().MaxHist)
	}
}

// trainTage runs a direction sequence through predict/update and returns
// the accuracy over the last half (after warmup).
func trainTage(t *testing.T, pc uint64, seq func(i int) bool, n int) float64 {
	t.Helper()
	tg := NewTage(DefaultTage())
	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		taken := seq(i)
		var info PredInfo
		tg.Predict(pc, &info)
		if i >= n/2 {
			counted++
			if info.Pred == taken {
				correct++
			}
		}
		tg.Update(pc, taken, &info)
	}
	return float64(correct) / float64(counted)
}

func TestTageLearnsBias(t *testing.T) {
	// Always-taken must be near-perfect.
	if acc := trainTage(t, 0x400100, func(i int) bool { return true }, 2000); acc < 0.99 {
		t.Errorf("always-taken accuracy %.3f", acc)
	}
}

func TestTageLearnsAlternating(t *testing.T) {
	// Period-2 pattern is trivially history-predictable.
	if acc := trainTage(t, 0x400100, func(i int) bool { return i%2 == 0 }, 4000); acc < 0.95 {
		t.Errorf("alternating accuracy %.3f", acc)
	}
}

func TestTageLearnsLoopPattern(t *testing.T) {
	// Taken 15 times, not-taken once (a 16-iteration loop exit): TAGE's
	// history tables should get most exits right.
	if acc := trainTage(t, 0x400100, func(i int) bool { return i%16 != 15 }, 16000); acc < 0.93 {
		t.Errorf("loop-16 accuracy %.3f", acc)
	}
}

func TestTageCannotLearnRandom(t *testing.T) {
	rng := uint64(12345)
	rand := func(i int) bool {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng&1 == 0
	}
	acc := trainTage(t, 0x400100, rand, 8000)
	if acc > 0.65 {
		t.Errorf("random-sequence accuracy %.3f is implausibly high", acc)
	}
}

func TestTageSeparatesBranches(t *testing.T) {
	// Two branches with opposite biases must not destructively alias.
	tg := NewTage(DefaultTage())
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		for pc, taken := range map[uint64]bool{0x400100: true, 0x400900: false} {
			var info PredInfo
			tg.Predict(pc, &info)
			if i > 1000 {
				total++
				if info.Pred == taken {
					correct++
				}
			}
			tg.Update(pc, taken, &info)
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.98 {
		t.Errorf("two-branch accuracy %.3f", acc)
	}
}

func TestBTB(t *testing.T) {
	btb := NewBTB(DefaultBTB())
	if _, hit := btb.Lookup(0x1000); hit {
		t.Fatal("empty BTB should miss")
	}
	btb.Update(0x1000, 0x2000)
	if tgt, hit := btb.Lookup(0x1000); !hit || tgt != 0x2000 {
		t.Fatalf("lookup = (%#x, %v)", tgt, hit)
	}
	// Update replaces the target.
	btb.Update(0x1000, 0x3000)
	if tgt, _ := btb.Lookup(0x1000); tgt != 0x3000 {
		t.Fatal("update should replace target")
	}
}

func TestBTBEviction(t *testing.T) {
	cfg := BTBConfig{Entries: 8, Ways: 2} // 4 sets
	btb := NewBTB(cfg)
	// Fill one set with 3 conflicting entries (stride = sets*8 in PC).
	pcs := []uint64{0x1000, 0x1000 + 4*8, 0x1000 + 8*8}
	for _, pc := range pcs {
		btb.Update(pc, pc+8)
	}
	hits := 0
	for _, pc := range pcs {
		if _, hit := btb.Lookup(pc); hit {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("expected exactly 2 survivors in a 2-way set, got %d", hits)
	}
}

func TestRAS(t *testing.T) {
	ras := NewRAS(4)
	if _, ok := ras.Pop(); ok {
		t.Fatal("empty RAS should underflow")
	}
	for i := uint64(1); i <= 3; i++ {
		ras.Push(i * 100)
	}
	for i := uint64(3); i >= 1; i-- {
		got, ok := ras.Pop()
		if !ok || got != i*100 {
			t.Fatalf("pop = (%d, %v), want %d", got, ok, i*100)
		}
	}
	// Overflow keeps the newest entries.
	for i := uint64(1); i <= 6; i++ {
		ras.Push(i)
	}
	if got, _ := ras.Pop(); got != 6 {
		t.Fatalf("after overflow, top = %d, want 6", got)
	}
	if ras.Overflows == 0 {
		t.Fatal("overflow not counted")
	}
}

func TestPredictorCondFlow(t *testing.T) {
	p := NewPredictor()
	pc := uint64(0x400100)
	// Train an always-taken conditional with target 0x5000.
	for i := 0; i < 500; i++ {
		var pr Prediction
		p.Predict(isa.OpBeq, pc, 0, &pr)
		if !pr.Cond {
			t.Fatal("conditional branch must set Cond")
		}
		p.Update(isa.OpBeq, pc, true, 0x5000, &pr)
	}
	var pr Prediction
	p.Predict(isa.OpBeq, pc, 0, &pr)
	if !pr.Taken {
		t.Fatal("should predict taken after training")
	}
	if !pr.TargetHit || pr.Target != 0x5000 {
		t.Fatalf("target = (%#x, %v)", pr.Target, pr.TargetHit)
	}
}

func TestPredictorCallRet(t *testing.T) {
	p := NewPredictor()
	// A call pushes its continuation; the matching return predicts it.
	var prCall, prRet Prediction
	p.Predict(isa.OpCall, 0x400100, 0x400108, &prCall)
	if !prCall.Taken {
		t.Fatal("call must be predicted taken")
	}
	p.Predict(isa.OpRet, 0x400200, 0, &prRet)
	if !prRet.TargetHit || prRet.Target != 0x400108 {
		t.Fatalf("return target = (%#x, %v), want 0x400108", prRet.Target, prRet.TargetHit)
	}
}

func TestPredictorJmpUsesBTB(t *testing.T) {
	p := NewPredictor()
	var pr Prediction
	p.Predict(isa.OpJmp, 0x400100, 0, &pr)
	if pr.TargetHit {
		t.Fatal("cold jump should miss the BTB")
	}
	p.Update(isa.OpJmp, 0x400100, true, 0x7000, &pr)
	p.Predict(isa.OpJmp, 0x400100, 0, &pr)
	if !pr.TargetHit || pr.Target != 0x7000 {
		t.Fatalf("trained jump target = (%#x, %v)", pr.Target, pr.TargetHit)
	}
}

// TestNewLoopPredictorGeometry: the set index is a mask, so entries must
// form a power-of-two number of full sets.
func TestNewLoopPredictorGeometry(t *testing.T) {
	for _, g := range []struct {
		entries, ways int
		ok            bool
	}{{64, 4, true}, {4, 4, true}, {48, 4, false}, {64, 3, false}, {64, 0, false}} {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NewLoopPredictor(g.entries, g.ways)
			return false
		}()
		if panicked == g.ok {
			t.Errorf("%d entries, %d ways: panicked=%v, want %v", g.entries, g.ways, panicked, !g.ok)
		}
	}
}

func TestLoopPredictorLearnsTripCount(t *testing.T) {
	lp := NewLoopPredictor(64, 4)
	pc := uint64(0x400100)
	// A 10-trip loop: 9 taken, 1 not-taken, repeated.
	trip := 10
	correct, total := 0, 0
	for iter := 0; iter < 40; iter++ {
		for i := 0; i < trip; i++ {
			taken := i < trip-1
			if pred, ok := lp.Predict(pc); ok {
				total++
				if pred == taken {
					correct++
				}
			}
			lp.Update(pc, taken)
		}
	}
	if total == 0 {
		t.Fatal("loop predictor never became confident")
	}
	if correct != total {
		t.Fatalf("confident loop predictions wrong: %d/%d", correct, total)
	}
}

func TestLoopPredictorIgnoresIrregular(t *testing.T) {
	lp := NewLoopPredictor(64, 4)
	pc := uint64(0x400200)
	rng := uint64(5)
	for i := 0; i < 2000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		if _, ok := lp.Predict(pc); ok {
			// Confidence on random directions should be extremely rare and
			// short-lived; a handful of overrides is tolerable.
			if lp.Overrides > 50 {
				t.Fatalf("%d overrides on a random branch", lp.Overrides)
			}
		}
		lp.Update(pc, rng&1 == 0)
	}
}

func TestLoopPredictorRelearnsChangedTrip(t *testing.T) {
	lp := NewLoopPredictor(64, 4)
	pc := uint64(0x400300)
	run := func(trip, iters int) (correct, total int) {
		for it := 0; it < iters; it++ {
			for i := 0; i < trip; i++ {
				taken := i < trip-1
				if pred, ok := lp.Predict(pc); ok {
					total++
					if pred == taken {
						correct++
					}
				}
				lp.Update(pc, taken)
			}
		}
		return
	}
	run(8, 20)
	c, tot := run(13, 40) // trip count changes: must relearn
	if tot == 0 {
		t.Fatal("never relearned the new trip count")
	}
	if float64(c)/float64(tot) < 0.9 {
		t.Fatalf("post-change accuracy %d/%d", c, tot)
	}
}

func TestPredictorLongLoopExitAccuracy(t *testing.T) {
	// A 200-trip loop is beyond TAGE's useful history; the loop predictor
	// must nail the exits.
	p := NewPredictor()
	pc := uint64(0x400400)
	exitWrong := 0
	for iter := 0; iter < 60; iter++ {
		for i := 0; i < 200; i++ {
			taken := i < 199
			var pr Prediction
			p.Predict(isa.OpBne, pc, 0, &pr)
			if iter > 20 && !taken && pr.Taken {
				exitWrong++
			}
			p.Update(isa.OpBne, pc, taken, 0x400500, &pr)
		}
	}
	if exitWrong > 3 {
		t.Fatalf("mispredicted %d/39 trained loop exits", exitWrong)
	}
}

// TestTageFoldedIncremental drives the predictor with a deterministic
// pseudo-random branch stream and checks, after every history shift, that
// the incrementally-maintained folded registers equal the reference
// foldHistory recomputation over the raw history for every table and fold
// width. The incremental path is what index/tag read on the hot path; any
// drift would silently change every prediction.
func TestTageFoldedIncremental(t *testing.T) {
	for _, cfg := range []TageConfig{
		DefaultTage(),
		// Table widths that do not divide the history lengths evenly, plus
		// histories shorter than the fold width (MinHist < TagBits-1).
		{BimodalBits: 6, NumTables: 5, TableBits: 7, TagBits: 11, MinHist: 3, MaxHist: 100, CounterBits: 3},
		{BimodalBits: 6, NumTables: 2, TableBits: 5, TagBits: 6, MinHist: 1, MaxHist: 64, CounterBits: 3},
	} {
		tg := NewTage(cfg)
		rng := uint64(0x2545F4914F6CDD1D)
		for step := 0; step < 5000; step++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			pc := (rng % 97) * 4
			var info PredInfo
			tg.Predict(pc, &info)
			tg.Update(pc, rng&0x10000 != 0, &info)
			for i := 0; i < cfg.NumTables; i++ {
				hl := tg.histLens[i]
				if got, want := tg.foldIdx[i], tg.foldHistory(hl, int(cfg.TableBits)); got != want {
					t.Fatalf("cfg %d step %d table %d: index fold %#x, reference %#x", cfg.NumTables, step, i, got, want)
				}
				if got, want := tg.foldTag1[i], tg.foldHistory(hl, int(cfg.TagBits)); got != want {
					t.Fatalf("cfg %d step %d table %d: tag fold %#x, reference %#x", cfg.NumTables, step, i, got, want)
				}
				if got, want := tg.foldTag2[i], tg.foldHistory(hl, int(cfg.TagBits)-1); got != want {
					t.Fatalf("cfg %d step %d table %d: tag2 fold %#x, reference %#x", cfg.NumTables, step, i, got, want)
				}
			}
		}
	}
}

// TestRASWraparound exercises the circular overflow path end to end: a
// stream of pushes twice the stack depth must keep exactly the newest
// `depth` continuations in LIFO order, and draining past them must count
// every extra pop as an underflow without wedging the stack.
func TestRASWraparound(t *testing.T) {
	const depth = 4
	ras := NewRAS(depth)
	for i := uint64(1); i <= 2*depth; i++ {
		ras.Push(i * 0x10)
	}
	if want := uint64(depth); ras.Overflows != want {
		t.Fatalf("Overflows = %d, want %d", ras.Overflows, want)
	}
	// The survivors are the newest `depth` entries, popped newest-first.
	for i := uint64(2 * depth); i > depth; i-- {
		got, ok := ras.Pop()
		if !ok || got != i*0x10 {
			t.Fatalf("pop = (%#x, %v), want %#x", got, ok, i*0x10)
		}
	}
	// Everything older was overwritten by the wraparound.
	for i := 0; i < 3; i++ {
		if _, ok := ras.Pop(); ok {
			t.Fatalf("pop %d after drain should underflow", i)
		}
	}
	if want := uint64(3); ras.Underflows != want {
		t.Fatalf("Underflows = %d, want %d", ras.Underflows, want)
	}
	// The stack still works after underflowing.
	ras.Push(0xABC)
	if got, ok := ras.Pop(); !ok || got != 0xABC {
		t.Fatalf("post-underflow pop = (%#x, %v), want 0xABC", got, ok)
	}
}

// TestBTBAliasingLRU pins the replacement policy under set aliasing: when
// three branches contend for a 2-way set, the least-recently-used way is
// the victim, and a demand Lookup refreshes recency while Probe (the
// frontend walker's side-effect-free path) must not.
func TestBTBAliasingLRU(t *testing.T) {
	cfg := BTBConfig{Entries: 8, Ways: 2} // 4 sets; set = (pc>>3)%4
	stride := uint64(4 * 8)               // same-set alias distance
	a, b, c := uint64(0x1000), uint64(0x1000)+stride, uint64(0x1000)+2*stride

	// A demand Lookup promotes its entry, so the other way is evicted.
	btb := NewBTB(cfg)
	btb.Update(a, 0xA)
	btb.Update(b, 0xB)
	if _, hit := btb.Lookup(a); !hit {
		t.Fatal("a should hit before any eviction")
	}
	btb.Update(c, 0xC) // must evict b, the LRU way
	if _, hit := btb.Lookup(b); hit {
		t.Fatal("b should have been the LRU victim")
	}
	if tgt, hit := btb.Lookup(a); !hit || tgt != 0xA {
		t.Fatalf("a = (%#x, %v), want (0xA, true)", tgt, hit)
	}
	if tgt, hit := btb.Lookup(c); !hit || tgt != 0xC {
		t.Fatalf("c = (%#x, %v), want (0xC, true)", tgt, hit)
	}

	// Probe leaves recency untouched: after probing a (the older way),
	// a is still the LRU victim when c arrives.
	btb = NewBTB(cfg)
	btb.Update(a, 0xA)
	btb.Update(b, 0xB)
	hitsBefore, missesBefore := btb.Hits, btb.Misses
	if tgt, ok := btb.Probe(a); !ok || tgt != 0xA {
		t.Fatalf("probe a = (%#x, %v), want (0xA, true)", tgt, ok)
	}
	if btb.Hits != hitsBefore || btb.Misses != missesBefore {
		t.Fatal("Probe must not touch the hit/miss counters")
	}
	btb.Update(c, 0xC) // must evict a despite the probe
	if _, hit := btb.Lookup(a); hit {
		t.Fatal("a should have been evicted: Probe must not refresh LRU")
	}
	if _, hit := btb.Lookup(b); !hit {
		t.Fatal("b should survive: it was more recent than a")
	}

	// An aliasing update to an existing tag refreshes in place rather
	// than consuming a way.
	btb = NewBTB(cfg)
	btb.Update(a, 0xA)
	btb.Update(b, 0xB)
	btb.Update(a, 0xA2) // refresh, not insert
	btb.Update(c, 0xC)  // evicts b
	if tgt, hit := btb.Lookup(a); !hit || tgt != 0xA2 {
		t.Fatalf("refreshed a = (%#x, %v), want (0xA2, true)", tgt, hit)
	}
	if _, hit := btb.Lookup(b); hit {
		t.Fatal("b should have been evicted after a's in-place refresh")
	}
}
