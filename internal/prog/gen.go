package prog

import (
	"math/rand"

	"cdf/internal/isa"
)

// MemRegion is a procedural data-memory region [Lo, Hi): every word reads
// as SplitMix64(addr ^ Salt). prog sits below emu, so Generate describes a
// generated program's memory as plain data and emu.BuildMemory turns it
// into the closures emu.Memory carries. The fuzz and oracle tests
// (FuzzCore, TestFuzzRandomPrograms, TestGeneratedProgramsAgree) build the
// core's and the reference emulator's initial memory from it.
type MemRegion struct {
	Lo   uint64
	Hi   uint64
	Salt uint64
}

// MemSpec describes a program's procedural data memory.
type MemSpec []MemRegion

// gen drives random program construction. All randomness flows through the
// single injected *rand.Rand, so a run is fully determined by its seed.
type gen struct {
	rng *rand.Rand
	b   *Builder
}

func (g *gen) reg() isa.Reg { return isa.Reg(4 + g.rng.Intn(20)) }

// body emits a random straight-line stretch.
func (g *gen) body(n int) {
	for i := 0; i < n; i++ {
		switch g.rng.Intn(10) {
		case 0:
			g.b.Load(g.reg(), isa.Reg(2), int64(g.rng.Intn(512))*8)
		case 1:
			g.b.Store(isa.Reg(3), int64(g.rng.Intn(64))*8, g.reg())
		case 2:
			g.b.Mul(g.reg(), g.reg(), g.reg())
		case 3:
			g.b.FAdd(g.reg(), g.reg(), g.reg())
		case 4:
			g.b.Div(g.reg(), g.reg(), isa.Reg(30)) // r30 = 3, never zero
		case 5:
			g.b.XorI(g.reg(), g.reg(), int64(g.rng.Intn(255)))
		default:
			g.b.AddI(g.reg(), g.reg(), int64(g.rng.Intn(16)))
		}
	}
}

// Generate builds a random-but-valid looping program: nested loops, data
// branches, loads/stores over a procedural region, calls, and mixed ALU
// work. It stresses control-flow corners the hand-written kernels avoid,
// and is the program source for fuzzing and oracle-mode random sweeps.
//
// The program loops far past any realistic retirement budget, so runs end
// at MaxRetired rather than at the halt. All randomness comes from rng;
// the same rng state always yields the same (program, memory) pair.
func Generate(rng *rand.Rand, name string) (*Program, MemSpec) {
	g := &gen{rng: rng, b: NewBuilder(name)}
	b := g.b

	salt := rng.Uint64()
	mem := MemSpec{{Lo: 0x10000000, Hi: 0x10000000 + (1 << 24), Salt: salt}}

	b.MovI(isa.Reg(0), 0)
	b.MovI(isa.Reg(1), 1<<40) // outer counter
	b.MovI(isa.Reg(2), 0x10000000)
	b.MovI(isa.Reg(3), 0x10800000)
	b.MovI(isa.Reg(30), 3)

	var fn int
	hasCall := g.rng.Intn(2) == 0
	if hasCall {
		fn = b.ReserveLabel()
	}

	outer := b.Label()
	g.body(2 + g.rng.Intn(8))

	// A data-dependent branch with random bias.
	b.Load(isa.Reg(25), isa.Reg(2), int64(g.rng.Intn(256))*8)
	b.AndI(isa.Reg(26), isa.Reg(25), int64(1<<g.rng.Intn(4))-1)
	skip := b.ReserveLabel()
	b.Bne(isa.Reg(26), isa.Reg(0), skip)
	g.body(1 + g.rng.Intn(4))
	b.Place(skip)

	if hasCall {
		b.Call(fn)
	}

	// Optional inner loop.
	if g.rng.Intn(2) == 0 {
		b.MovI(isa.Reg(27), int64(2+g.rng.Intn(6)))
		inner := b.Label()
		g.body(1 + g.rng.Intn(4))
		b.SubI(isa.Reg(27), isa.Reg(27), 1)
		b.Bne(isa.Reg(27), isa.Reg(0), inner)
	}

	// Advance the load cursor so addresses move.
	b.AddI(isa.Reg(2), isa.Reg(2), int64(8*(1+g.rng.Intn(32))))
	b.SubI(isa.Reg(1), isa.Reg(1), 1)
	b.Bne(isa.Reg(1), isa.Reg(0), outer)
	b.Halt()

	if hasCall {
		b.Place(fn)
		g.body(1 + g.rng.Intn(3))
		b.Ret()
	}
	return b.MustProgram(), mem
}
