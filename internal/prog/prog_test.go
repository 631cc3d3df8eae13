package prog

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cdf/internal/isa"
)

func r(i int) isa.Reg { return isa.Reg(i) }

func TestBuilderStraightLine(t *testing.T) {
	b := NewBuilder("straight")
	b.MovI(r(1), 5)
	b.AddI(r(2), r(1), 3)
	b.Halt()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) != 1 {
		t.Fatalf("got %d blocks, want 1", len(p.Blocks))
	}
	if p.NumUops() != 3 {
		t.Fatalf("got %d uops, want 3", p.NumUops())
	}
	if p.Entry != 0 {
		t.Fatalf("entry = %d", p.Entry)
	}
}

func TestBuilderBackwardLoop(t *testing.T) {
	b := NewBuilder("loop")
	b.MovI(r(1), 10)
	b.MovI(r(0), 0)
	loop := b.Label()
	b.SubI(r(1), r(1), 1)
	b.Bne(r(1), r(0), loop)
	b.Halt()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3 (init, loop, halt)", len(p.Blocks))
	}
	// The init block must fall through to the loop block.
	if p.Blocks[0].Fallthrough != loop {
		t.Errorf("init fallthrough = %d, want %d", p.Blocks[0].Fallthrough, loop)
	}
	// The loop block's branch targets itself and falls through to halt.
	lb := p.Blocks[loop]
	last := lb.Uops[len(lb.Uops)-1]
	if last.Target != loop {
		t.Errorf("loop branch target = %d, want %d", last.Target, loop)
	}
	if lb.Fallthrough != loop+1 {
		t.Errorf("loop fallthrough = %d, want %d", lb.Fallthrough, loop+1)
	}
}

func TestBuilderForwardLabel(t *testing.T) {
	b := NewBuilder("fwd")
	b.MovI(r(0), 0)
	b.MovI(r(1), 1)
	exit := b.ReserveLabel()
	b.Beq(r(1), r(0), exit)
	b.AddI(r(2), r(2), 1) // not-taken path
	b.Place(exit)
	b.Halt()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	// Branch block falls through to the not-taken block, which falls
	// through to exit.
	var brBlock *Block
	for _, blk := range p.Blocks {
		if blk.EndsInBranch() {
			brBlock = blk
		}
	}
	if brBlock == nil {
		t.Fatal("no branch block")
	}
	if brBlock.Uops[len(brBlock.Uops)-1].Target != exit {
		t.Error("branch target != reserved label")
	}
	ntBlock := p.Blocks[brBlock.Fallthrough]
	if ntBlock.Fallthrough != exit {
		t.Errorf("not-taken fallthrough = %d, want %d", ntBlock.Fallthrough, exit)
	}
	if len(p.Blocks[exit].Uops) != 1 || p.Blocks[exit].Uops[0].Op != isa.OpHalt {
		t.Error("exit block should hold the halt")
	}
}

func TestBuilderReserveDoesNotDisturbCurrentBlock(t *testing.T) {
	b := NewBuilder("mid")
	b.MovI(r(1), 1)
	lbl := b.ReserveLabel() // reserved mid-block: must not split it
	b.MovI(r(2), 2)
	b.Jmp(lbl)
	b.Place(lbl)
	b.Halt()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	first := p.Blocks[p.Entry]
	if len(first.Uops) != 3 {
		t.Fatalf("entry block has %d uops, want 3 (reserve split it)", len(first.Uops))
	}
}

func TestBuilderUnplacedLabelFails(t *testing.T) {
	b := NewBuilder("bad")
	lbl := b.ReserveLabel()
	b.Jmp(lbl)
	if _, err := b.Program(); err == nil {
		t.Fatal("expected error for unplaced label")
	}
}

func TestBuilderDoublePlaceFails(t *testing.T) {
	b := NewBuilder("bad2")
	lbl := b.ReserveLabel()
	b.Jmp(lbl)
	b.Place(lbl)
	b.Halt()
	b.Place(lbl)
	if _, err := b.Program(); err == nil {
		t.Fatal("expected error for double place")
	}
}

func TestBuilderInvalidUopFails(t *testing.T) {
	b := NewBuilder("bad3")
	b.Add(isa.NoReg, r(1), r(2)) // missing destination
	b.Halt()
	if _, err := b.Program(); err == nil {
		t.Fatal("expected error for invalid uop")
	}
}

func TestBuilderCallRet(t *testing.T) {
	b := NewBuilder("call")
	fn := b.ReserveLabel()
	b.MovI(r(1), 1)
	b.Call(fn)
	b.Halt() // continuation after the call
	b.Place(fn)
	b.AddI(r(1), r(1), 1)
	b.Ret()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	// The call block must record its continuation as fallthrough.
	var callBlock *Block
	for _, blk := range p.Blocks {
		if len(blk.Uops) > 0 && blk.Uops[len(blk.Uops)-1].Op == isa.OpCall {
			callBlock = blk
		}
	}
	if callBlock == nil {
		t.Fatal("no call block")
	}
	cont := p.Blocks[callBlock.Fallthrough]
	if cont.Uops[0].Op != isa.OpHalt {
		t.Error("call continuation should be the halt block")
	}
}

func TestPCAssignment(t *testing.T) {
	b := NewBuilder("pcs")
	b.MovI(r(1), 1)
	b.MovI(r(2), 2)
	loop := b.Label()
	b.AddI(r(1), r(1), 1)
	b.Jmp(loop)
	p := b.MustProgram()

	if p.BlockPC(0) != CodeBase {
		t.Errorf("first block PC = %#x, want %#x", p.BlockPC(0), CodeBase)
	}
	if got := p.PC(0, 1); got != CodeBase+UopBytes {
		t.Errorf("PC(0,1) = %#x", got)
	}
	// Second block starts right after the first.
	if got := p.BlockPC(loop); got != CodeBase+2*UopBytes {
		t.Errorf("BlockPC(loop) = %#x", got)
	}
	// PCs are unique across all uops.
	seen := map[uint64]bool{}
	for _, blk := range p.Blocks {
		for i := range blk.Uops {
			pc := p.PC(blk.ID, i)
			if seen[pc] {
				t.Fatalf("duplicate PC %#x", pc)
			}
			seen[pc] = true
		}
	}
}

func TestValidateCatchesBadTargets(t *testing.T) {
	p := &Program{
		Name: "bad",
		Blocks: []*Block{{
			ID:          0,
			Uops:        []isa.Uop{{Op: isa.OpJmp, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Target: 99}},
			Fallthrough: isa.NoTarget,
		}},
	}
	p.AssignPCs()
	if err := p.Validate(); err == nil {
		t.Fatal("expected out-of-range target error")
	}
}

func TestValidateCatchesMidBlockBranch(t *testing.T) {
	p := &Program{
		Name: "bad",
		Blocks: []*Block{{
			ID: 0,
			Uops: []isa.Uop{
				{Op: isa.OpBeq, Dst: isa.NoReg, Src1: 0, Src2: 1, Target: 0},
				{Op: isa.OpHalt, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Target: isa.NoTarget},
			},
			Fallthrough: isa.NoTarget,
		}},
	}
	p.AssignPCs()
	if err := p.Validate(); err == nil {
		t.Fatal("expected mid-block branch error")
	}
}

func TestValidateCatchesMissingFallthrough(t *testing.T) {
	p := &Program{
		Name: "bad",
		Blocks: []*Block{{
			ID:          0,
			Uops:        []isa.Uop{{Op: isa.OpMovI, Dst: 1, Src1: isa.NoReg, Src2: isa.NoReg, Target: isa.NoTarget}},
			Fallthrough: isa.NoTarget, // non-terminal block with no successor
		}},
	}
	p.AssignPCs()
	if err := p.Validate(); err == nil {
		t.Fatal("expected fallthrough error")
	}
}

func TestProgramString(t *testing.T) {
	b := NewBuilder("strtest")
	b.MovI(r(1), 42)
	b.Halt()
	p := b.MustProgram()
	s := p.String()
	for _, want := range []string{"strtest", "B0:", "movi R1, #42", "halt"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestMustProgramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustProgram should panic on invalid program")
		}
	}()
	b := NewBuilder("panics")
	lbl := b.ReserveLabel()
	b.Jmp(lbl)
	b.MustProgram()
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p1, m1 := Generate(rand.New(rand.NewSource(seed)), "gen")
		p2, m2 := Generate(rand.New(rand.NewSource(seed)), "gen")
		if err := p1.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("seed %d: memory spec not deterministic", seed)
		}
		if len(p1.Blocks) != len(p2.Blocks) || p1.NumUops() != p2.NumUops() {
			t.Fatalf("seed %d: program shape not deterministic", seed)
		}
		for i := range p1.Blocks {
			if !reflect.DeepEqual(*p1.Blocks[i], *p2.Blocks[i]) {
				t.Fatalf("seed %d: block B%d not deterministic", seed, i)
			}
		}
	}
}
