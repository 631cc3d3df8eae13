package branch

import (
	"cdf/internal/assoc"
	"cdf/internal/isa"
)

// BTBConfig sizes the branch target buffer.
type BTBConfig struct {
	Entries int
	Ways    int
}

// DefaultBTB returns a 4K-entry 4-way BTB.
func DefaultBTB() BTBConfig { return BTBConfig{Entries: 4096, Ways: 4} }

// BTB is a set-associative branch target buffer; a way's payload is the
// branch target.
type BTB struct {
	entries assoc.Table[uint64]

	Hits   uint64
	Misses uint64
}

// NewBTB builds a BTB.
func NewBTB(cfg BTBConfig) *BTB {
	return &BTB{entries: assoc.New[uint64](cfg.Entries/cfg.Ways, cfg.Ways)}
}

func (b *BTB) set(pc uint64) int { return int((pc >> 3) % uint64(b.entries.Sets())) }

// Lookup returns the predicted target for the branch at pc.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	if e := b.entries.Find(b.set(pc), pc); e != nil {
		b.entries.Touch(e)
		b.Hits++
		return e.V, true
	}
	b.Misses++
	return 0, false
}

// Probe returns the target for the branch at pc without touching LRU state
// or the hit/miss counters. The decoupled frontend walker and the shadow
// BTB's backup lookup use it so that neither perturbs the demand path's
// replacement decisions.
func (b *BTB) Probe(pc uint64) (target uint64, ok bool) {
	if e := b.entries.Find(b.set(pc), pc); e != nil {
		return e.V, true
	}
	return 0, false
}

// Update installs or refreshes the target for the branch at pc.
func (b *BTB) Update(pc, target uint64) {
	e, hit := b.entries.Slot(b.set(pc), pc)
	if !hit {
		b.entries.Fill(e, pc, target)
		return
	}
	e.V = target
	b.entries.Touch(e)
}

// RAS is the return address stack.
type RAS struct {
	stack []uint64
	max   int

	Overflows  uint64
	Underflows uint64
}

// NewRAS returns a return address stack with the given depth.
func NewRAS(depth int) *RAS { return &RAS{max: depth} }

// Push records a call's return address.
func (r *RAS) Push(retPC uint64) {
	if len(r.stack) >= r.max {
		// Overwrite the bottom (circular behaviour).
		copy(r.stack, r.stack[1:])
		r.stack = r.stack[:len(r.stack)-1]
		r.Overflows++
	}
	r.stack = append(r.stack, retPC)
}

// Pop predicts a return target.
func (r *RAS) Pop() (retPC uint64, ok bool) {
	if len(r.stack) == 0 {
		r.Underflows++
		return 0, false
	}
	retPC = r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	return retPC, true
}

// Prediction is the frontend's combined direction+target prediction.
type Prediction struct {
	Taken     bool
	Target    uint64
	TargetHit bool // target was available (BTB/RAS hit or fallthrough)
	Info      PredInfo
	Cond      bool // the branch was conditional (Info valid)
}

// Predictor bundles TAGE, the loop predictor, BTB, and RAS into the
// frontend's branch unit (the paper's TAGE-SC-L baseline, minus the
// statistical corrector — see DESIGN.md).
type Predictor struct {
	Tage *Tage
	Loop *LoopPredictor
	BTB  *BTB
	RAS  *RAS
}

// NewPredictor builds the default Table 1 branch unit.
func NewPredictor() *Predictor {
	return &Predictor{
		Tage: NewTage(DefaultTage()),
		Loop: NewLoopPredictor(64, 4),
		BTB:  NewBTB(DefaultBTB()),
		RAS:  NewRAS(32),
	}
}

// Predict writes into pr a direction+target prediction for the branch uop
// with opcode op at pc. For calls, retPC is the return continuation to
// push. Every field is overwritten (Info only for conditional branches, the
// one case that reads it), so callers reuse one Prediction rather than copy
// its TAGE lookup state around.
func (p *Predictor) Predict(op isa.Op, pc, retPC uint64, pr *Prediction) {
	pr.Taken, pr.Target, pr.TargetHit, pr.Cond = false, 0, false, false
	switch {
	case op.IsCondBranch():
		pr.Cond = true
		p.Tage.Predict(pc, &pr.Info)
		pr.Taken = pr.Info.Pred
		// A confident loop entry overrides TAGE (the "L" of TAGE-SC-L).
		if lp, ok := p.Loop.Predict(pc); ok {
			pr.Taken = lp
		}
		if pr.Taken {
			pr.Target, pr.TargetHit = p.BTB.Lookup(pc)
		} else {
			pr.TargetHit = true // fallthrough needs no BTB
		}
	case op == isa.OpJmp:
		pr.Taken = true
		pr.Target, pr.TargetHit = p.BTB.Lookup(pc)
	case op == isa.OpCall:
		pr.Taken = true
		pr.Target, pr.TargetHit = p.BTB.Lookup(pc)
		p.RAS.Push(retPC)
	case op == isa.OpRet:
		pr.Taken = true
		pr.Target, pr.TargetHit = p.RAS.Pop()
	}
}

// Update trains the predictor with a resolved branch: actual direction and
// target. Must be called once per predicted branch in fetch order, with the
// Prediction its Predict call wrote.
func (p *Predictor) Update(op isa.Op, pc uint64, taken bool, target uint64, pr *Prediction) {
	if pr.Cond {
		p.Tage.Update(pc, taken, &pr.Info)
		p.Loop.Update(pc, taken)
	}
	if taken && op != isa.OpRet {
		p.BTB.Update(pc, target)
	}
}
