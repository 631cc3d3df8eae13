package front

import (
	"cdf/internal/isa"
	"cdf/internal/prog"
)

// ShadowBranch is one statically decodable branch within an instruction
// cache line: its PC and its taken-path target. Returns are excluded (their
// target is dynamic); everything else in the ISA encodes its target in the
// instruction word, which is what makes shadow decoding possible at all.
type ShadowBranch struct {
	PC     uint64
	Target uint64
}

// Decoder maps an instruction-cache line to the shadow branches it
// contains. It is precomputed once per program (the decode itself is free at
// simulation time; the modeled cost is the one-cycle delay the core applies
// before inserting into the shadow BTB).
type Decoder struct {
	lineBytes uint64
	byLine    map[uint64][]ShadowBranch
}

// NewDecoder precomputes the per-line shadow-branch lists for p.
func NewDecoder(p *prog.Program, lineBytes uint64) *Decoder {
	d := &Decoder{lineBytes: lineBytes, byLine: make(map[uint64][]ShadowBranch)}
	for _, b := range p.Blocks {
		for i, u := range b.Uops {
			if !u.Op.IsBranch() || u.Op == isa.OpRet || u.Target == isa.NoTarget {
				continue
			}
			pc := p.PC(b.ID, i)
			sb := ShadowBranch{PC: pc, Target: p.BlockPC(u.Target)}
			line := pc / lineBytes
			d.byLine[line] = append(d.byLine[line], sb)
		}
	}
	return d
}

// Line returns the shadow branches in the given cache line (nil if none).
func (d *Decoder) Line(line uint64) []ShadowBranch { return d.byLine[line] }
