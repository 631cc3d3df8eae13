package core

import (
	"fmt"

	"cdf/internal/branch"
	"cdf/internal/emu"
	"cdf/internal/front"
	"cdf/internal/mem"
	"cdf/internal/mem/prefetch"
	"cdf/internal/prog"
	"cdf/internal/stats"
)

// Warmer is the functional-warmup layer of sampled simulation (DESIGN.md
// §12). It owns the long-lived microarchitectural structures — memory
// hierarchy, branch predictor, and the CDF criticality machinery — and
// trains them from the master emulator's DynUop history while the program
// fast-forwards between measured intervals. At each checkpoint the
// structures are handed to a fresh interval core (NewAt), which continues
// training them cycle-accurately; the handoff is strictly serial, so a
// single set of structures threads through the whole sampled run exactly as
// it would through a full one. The criticality machinery is one shared
// criticality value: the warmer and every interval core train it through
// the same method, at absolute program positions.
//
// Warming is timing-free by construction: cache contents, replacement
// state, prefetcher training, predictor state and criticality counters all
// advance, but MSHRs, DRAM schedules and the fill-buffer walk latency are
// untouched (NewAt resets the former; warming never holds the machinery
// busy, since the walk's cycle cost only matters inside a measured
// interval).
type Warmer struct {
	cfg Config
	prg *prog.Program

	hier *mem.Hierarchy
	pw   *PredictorWarmer // the branch predictor and its warming

	crit *criticality

	// Instruction-supply structures (nil unless the subsystem and the
	// relevant feature are enabled). Like the predictor, they persist
	// across sampled intervals: the shadow BTB keeps its decoded targets
	// and the throttle its cycle-accurately chosen degree. Warming decodes
	// shadow branches from each distinct fetched line (mirroring the timed
	// path, minus the one-cycle delay timing cannot matter for) but issues
	// no prefetches, so the throttle's counters stay frozen by construction.
	frontShadow *front.ShadowBTB
	frontDec    *front.Decoder
	frontThr    *prefetch.FDP

	// pos is the absolute program position (in executed uops) of the
	// warmer's clock, the position crit trains at. It survives handoffs:
	// Resync pulls it forward past each measured region.
	pos uint64

	lastILine uint64
	haveILine bool

	// Wrong-path surrogate state (see warmWrongPath).
	wp      wpLines
	wpRate  float64 // wrong-path loads replayed per mispredict episode
	wpCarry float64 // fractional-load accumulator across episodes
}

// NewWarmer builds the warm structure set for cfg and p. The same
// constructor backs New (cold cores adopt a fresh warmer), so a warmed and
// a cold core are guaranteed to be built from identical structures.
func NewWarmer(cfg Config, p *prog.Program) (*Warmer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &Warmer{
		cfg:    cfg,
		prg:    p,
		hier:   mem.NewHierarchy(cfg.Mem, &stats.Stats{}),
		pw:     &PredictorWarmer{pred: branch.NewPredictor(), prg: p},
		crit:   newCriticality(cfg, p),
		wp:     wpLines{rng: cfg.Seed*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D},
		wpRate: float64(wpMissBudgetPerEpisode),
	}
	if cfg.Front.Enabled && cfg.Front.ShadowBTB {
		w.frontShadow = front.NewShadowBTB(cfg.Front)
		w.frontDec = front.NewDecoder(p, cfg.Mem.LineBytes)
	}
	if cfg.Front.Enabled && cfg.Front.FDIP {
		w.frontThr = front.NewThrottle(cfg.Front)
	}
	return w, nil
}

// compatible checks that a core built with cfg for p may adopt w's
// structures. Run limits, the watchdog, paranoia and the scheduler variant
// are per-core and may differ; everything that shapes the structures or
// their training must match.
func (w *Warmer) compatible(cfg Config, p *prog.Program) error {
	if w.prg != p {
		return fmt.Errorf("core: warmer was built for program %q, core for %q", w.prg.Name, p.Name)
	}
	a, b := w.cfg, cfg
	a.MaxRetired, b.MaxRetired = 0, 0
	a.MaxCycles, b.MaxCycles = 0, 0
	a.WarmupRetired, b.WarmupRetired = 0, 0
	a.WatchdogCycles, b.WatchdogCycles = 0, 0
	a.ParanoidEvery, b.ParanoidEvery = 0, 0
	a.SlowPath, b.SlowPath = false, false
	if a != b {
		return fmt.Errorf("core: warmer config does not structurally match core config")
	}
	return nil
}

// Observe trains every warm structure with one executed uop: the
// predictor half (PredictorWarmer.Observe) then the rest (ObserveMemCrit).
// The sampled driver runs the two halves as the two stages of its
// fast-forward pipeline instead, one per goroutine, which gives every
// structure the same operation sequence because neither half reads what
// the other writes; Observe is the serial composition for the benchmark
// probe and the tests.
func (w *Warmer) Observe(d *emu.DynUop) {
	w.ObserveMemCrit(d, w.pw.Observe(d))
}

// PredictorWarmer is the branch-predictor half of a Warmer: the predictor
// and the state its training needs, and nothing ObserveMemCrit touches.
// It is allocated apart from the Warmer, so a goroutine running it writes
// no cache line the other half writes: sharing one made each half stall on
// the other's writes and undid most of the pipeline's gain.
type PredictorWarmer struct {
	pred *branch.Predictor
	prg  *prog.Program
	pr   branch.Prediction // Observe's scratch prediction
}

// PredictorWarmer returns w's predictor half.
func (w *Warmer) PredictorWarmer() *PredictorWarmer { return w.pw }

// Observe trains the branch predictor with one executed uop: predict then
// train, judging the prediction the way the frontend does
// (predictAndCheck). It reports whether the uop is a mispredicted branch,
// the one bit of predictor state ObserveMemCrit needs.
func (p *PredictorWarmer) Observe(d *emu.DynUop) (mispredict bool) {
	op := d.U.Op
	if !op.IsBranch() {
		return false
	}
	p.pred.Predict(op, d.PC, retContinuationPC(p.prg, d), &p.pr)
	p.pred.Update(op, d.PC, d.Taken, d.NextPC, &p.pr)
	return wrongPrediction(&p.pr, d)
}

// ObserveMemCrit trains everything but the predictor with one executed
// uop, given whether PredictorWarmer.Observe judged it mispredicted: the
// I-side and D-side hierarchy, the wrong-path surrogate, PRE's load
// marking and the criticality machinery, in that order.
func (w *Warmer) ObserveMemCrit(d *emu.DynUop, mispredict bool) {
	w.pos++

	// I-side: like the fetch engine, one cache touch per distinct line.
	line := w.hier.L1I.LineAddr(d.PC)
	if !w.haveILine || line != w.lastILine {
		w.hier.WarmInst(d.PC)
		if w.frontShadow != nil {
			for _, sb := range w.frontDec.Line(line) {
				w.frontShadow.Insert(sb)
			}
		}
		w.lastILine, w.haveILine = line, true
	}

	// D-side.
	llcMiss := false
	op := d.U.Op
	switch {
	case op.IsLoad():
		llcMiss = w.hier.WarmLoad(d.Addr)
		w.wp.note(d.Addr / w.cfg.Mem.LineBytes)
	case op.IsStore():
		w.hier.WarmStore(d.Addr)
	}

	if mispredict {
		w.warmWrongPath()
	}

	// PRE's stall-driven load marking cannot be observed functionally; LLC
	// misses — the dominant cause of full-window stalls — stand in for it.
	// The walk's busy window only shapes timing, which warming does not
	// model.
	if w.cfg.Mode == ModePRE && op.IsLoad() && llcMiss {
		w.crit.loadCCT.Update(d.PC, true)
	}
	w.crit.train(d, w.pos, llcMiss, mispredict, false)
}

// warmWrongPath replays one misprediction's worth of modelled wrong-path
// memory traffic against the warm hierarchy. The core's wrong-path engine
// (emitWrongPath) issues loads at synthesized near-path addresses while a
// mispredicted branch resolves: most target a recently loaded line, and up
// to wpMissBudgetPerEpisode per episode land a bounded distance around one
// — a scattershot that pre-fills the region the demand stream is moving
// into. Skipping that traffic during warming leaves measured intervals a
// hierarchy several times colder than the run they stand in for; replaying
// a fixed amount overshoots just as badly, because episode length is pure
// timing — loads flow until the branch resolves, so memory-bound kernels
// emit 30+ loads per episode and branchy low-latency ones fewer than two.
// The rate is therefore adopted from measurement: each cycle-accurate
// interval reports its observed loads-per-mispredict (SetWrongPathRate)
// and fast-forward replays that density, with a fractional carry so
// non-integer rates hold in expectation. Draws come from the warmer's own
// deterministic generator: the goal is the same fill density, not the
// core's exact address sequence (which is timing-dependent anyway).
func (w *Warmer) warmWrongPath() {
	if w.cfg.WrongPathLoadFrac == 0 || w.wp.n == 0 {
		return
	}
	w.wpCarry += w.wpRate
	loads := int(w.wpCarry)
	w.wpCarry -= float64(loads)
	miss := wpMissBudgetPerEpisode
	for i := 0; i < loads; i++ {
		line, _ := w.wp.draw(&miss)
		w.hier.WarmWrongLoad(line * w.cfg.Mem.LineBytes)
	}
}

// wpRateMax bounds the adopted wrong-path replay rate; beyond this an
// estimate says more about a degenerate interval (a handful of mispredicts
// against a long stall) than about sustainable episode length.
const wpRateMax = 256

// SetWrongPathRate adopts a measured wrong-path-loads-per-mispredict rate
// from a cycle-accurate interval. Like the frozen FDP degree, this carries
// the last timing-observed value across fast-forward, where episode length
// cannot be known. Callers should skip intervals with too few mispredicts
// to estimate a rate.
func (w *Warmer) SetWrongPathRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > wpRateMax {
		rate = wpRateMax
	}
	w.wpRate = rate
}

// Resync realigns the warmer's bookkeeping after interval core c has run
// on the shared structures. The warmer's clock jumps to the position
// warming resumes at (the core's fetch frontier — the master re-executes
// that span silently). The epoch anchors need no handoff: the core trained
// the shared criticality machinery on the same absolute positions, so a
// mask reset that fired inside the measured region stays fired, and one
// that is due shortly after it fires on time. Any partial fill-buffer
// collection the core left behind is dropped.
func (w *Warmer) Resync(c *Core) {
	w.crit.fb.Reset()
	w.crit.collecting = false
	w.pos = c.posBase + c.FetchFrontier()
	w.haveILine = false
}
