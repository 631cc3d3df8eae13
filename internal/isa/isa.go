// Package isa defines the micro-operation (uop) instruction set used by the
// simulator. It is a small load/store RISC set: enough to express the
// memory- and branch-intensive kernels the evaluation needs, while keeping
// functional emulation trivial. Scarab (the paper's simulator) also models
// the pipeline in terms of decoded uops; the x86 decode step it performs is
// orthogonal to the CDF mechanism, so the uop level is where we reproduce.
package isa

import "fmt"

// Reg names an architectural register. The ISA has NumRegs general-purpose
// integer registers R0..R31. R0 is an ordinary register (not hardwired to
// zero).
type Reg uint8

// NumRegs is the number of architectural registers.
const NumRegs = 32

// NoReg marks an absent register operand.
const NoReg Reg = 0xFF

// String implements fmt.Stringer.
func (r Reg) String() string {
	if r == NoReg {
		return "-"
	}
	return fmt.Sprintf("R%d", uint8(r))
}

// Valid reports whether r names an actual architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Op is a uop opcode.
type Op uint8

// Opcodes. Arithmetic ops come in register-register and register-immediate
// forms. FP ops operate on the integer register file bit-patterns; the
// simulator only cares about their latency class and dataflow, which is all
// the evaluation workloads need.
const (
	OpNop Op = iota

	// Integer ALU, register-register: Dst <- Src1 op Src2.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// Integer ALU, register-immediate: Dst <- Src1 op Imm.
	OpAddI
	OpSubI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI

	// Dst <- Imm.
	OpMovI
	// Dst <- Src1.
	OpMov

	// Long-latency integer.
	OpMul
	OpDiv

	// Floating-point latency classes (bit-pattern arithmetic on int regs).
	OpFAdd
	OpFMul
	OpFDiv

	// Memory. Load: Dst <- mem[Src1+Imm]. Store: mem[Src1+Imm] <- Src2.
	OpLoad
	OpStore

	// Control. Conditional branches compare Src1 against Src2 and, when
	// taken, transfer control to the block named by Target. OpJmp is
	// unconditional. OpCall pushes the fall-through block on the emulated
	// return stack and jumps to Target; OpRet pops it.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpJmp
	OpCall
	OpRet

	// OpHalt ends the program.
	OpHalt

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpShl: "shl", OpShr: "shr", OpAddI: "addi", OpSubI: "subi",
	OpAndI: "andi", OpOrI: "ori", OpXorI: "xori", OpShlI: "shli",
	OpShrI: "shri", OpMovI: "movi", OpMov: "mov", OpMul: "mul", OpDiv: "div",
	OpFAdd: "fadd", OpFMul: "fmul", OpFDiv: "fdiv", OpLoad: "ld",
	OpStore: "st", OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpJmp: "jmp", OpCall: "call", OpRet: "ret", OpHalt: "halt",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// HasDst reports whether uops with opcode o write a destination register.
func (o Op) HasDst() bool {
	switch o {
	case OpNop, OpStore, OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpCall, OpRet, OpHalt:
		return false
	}
	return true
}

// NumSrcs returns how many register sources uops with opcode o read.
func (o Op) NumSrcs() int {
	switch o {
	case OpNop, OpMovI, OpJmp, OpCall, OpRet, OpHalt:
		return 0
	case OpMov, OpAddI, OpSubI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI, OpLoad:
		return 1
	default:
		return 2
	}
}

// IsLoad reports whether o reads memory.
func (o Op) IsLoad() bool { return o == OpLoad }

// IsStore reports whether o writes memory.
func (o Op) IsStore() bool { return o == OpStore }

// IsMem reports whether o accesses memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// IsCondBranch reports whether o is a conditional branch.
func (o Op) IsCondBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// IsBranch reports whether o transfers control (conditionally or not).
func (o Op) IsBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpCall, OpRet:
		return true
	}
	return false
}

// IsUncondBranch reports whether o always transfers control.
func (o Op) IsUncondBranch() bool {
	switch o {
	case OpJmp, OpCall, OpRet:
		return true
	}
	return false
}

// PortClass groups opcodes by the execution-port kind they occupy.
type PortClass uint8

// Execution port classes. The core has a fixed number of ports per class.
const (
	PortALU PortClass = iota // simple integer, branches
	PortMul                  // integer multiply/divide
	PortFP                   // floating point
	PortLoad
	PortStore
	NumPortClasses
)

// String implements fmt.Stringer.
func (p PortClass) String() string {
	switch p {
	case PortALU:
		return "alu"
	case PortMul:
		return "mul"
	case PortFP:
		return "fp"
	case PortLoad:
		return "load"
	case PortStore:
		return "store"
	}
	return fmt.Sprintf("port(%d)", uint8(p))
}

// Port returns the execution port class for o.
func (o Op) Port() PortClass {
	switch {
	case o == OpLoad:
		return PortLoad
	case o == OpStore:
		return PortStore
	case o == OpMul || o == OpDiv:
		return PortMul
	case o == OpFAdd || o == OpFMul || o == OpFDiv:
		return PortFP
	default:
		return PortALU
	}
}

// Latency returns the execution latency in cycles for o, excluding memory
// access time for loads (the cache hierarchy adds that) and excluding the
// address-generation cycle already included here for memory ops.
func (o Op) Latency() int {
	switch o {
	case OpMul:
		return 3
	case OpDiv:
		return 12
	case OpFAdd:
		return 3
	case OpFMul:
		return 4
	case OpFDiv:
		return 14
	case OpLoad, OpStore:
		return 1 // address generation; memory time is added by the hierarchy
	default:
		return 1
	}
}

// NoTarget marks a uop with no control-flow target.
const NoTarget = -1

// Uop is a static micro-operation as it appears in a program's basic block.
type Uop struct {
	Op     Op
	Dst    Reg   // destination register, NoReg if none
	Src1   Reg   // first source, NoReg if none
	Src2   Reg   // second source, NoReg if none
	Imm    int64 // immediate / address displacement
	Target int   // taken-path basic-block ID for branches, else NoTarget
}

// String implements fmt.Stringer.
func (u Uop) String() string {
	switch {
	case u.Op == OpMovI:
		return fmt.Sprintf("%s %s, #%d", u.Op, u.Dst, u.Imm)
	case u.Op == OpLoad:
		return fmt.Sprintf("%s %s, [%s+%d]", u.Op, u.Dst, u.Src1, u.Imm)
	case u.Op == OpStore:
		return fmt.Sprintf("%s [%s+%d], %s", u.Op, u.Src1, u.Imm, u.Src2)
	case u.Op.IsCondBranch():
		return fmt.Sprintf("%s %s, %s, B%d", u.Op, u.Src1, u.Src2, u.Target)
	case u.Op == OpJmp || u.Op == OpCall:
		return fmt.Sprintf("%s B%d", u.Op, u.Target)
	case u.Op == OpRet, u.Op == OpHalt, u.Op == OpNop:
		return u.Op.String()
	case u.Op.NumSrcs() == 1 && u.Op != OpMov:
		return fmt.Sprintf("%s %s, %s, #%d", u.Op, u.Dst, u.Src1, u.Imm)
	case u.Op == OpMov:
		return fmt.Sprintf("%s %s, %s", u.Op, u.Dst, u.Src1)
	default:
		return fmt.Sprintf("%s %s, %s, %s", u.Op, u.Dst, u.Src1, u.Src2)
	}
}

// Validate checks that the uop's operands are consistent with its opcode.
func (u Uop) Validate() error {
	if !u.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(u.Op))
	}
	if u.Op.HasDst() {
		if !u.Dst.Valid() {
			return fmt.Errorf("isa: %s requires a destination register, got %s", u.Op, u.Dst)
		}
	} else if u.Dst != NoReg {
		return fmt.Errorf("isa: %s must not have a destination register", u.Op)
	}
	n := u.Op.NumSrcs()
	if n >= 1 && !u.Src1.Valid() {
		return fmt.Errorf("isa: %s requires Src1, got %s", u.Op, u.Src1)
	}
	if n >= 2 && !u.Src2.Valid() {
		return fmt.Errorf("isa: %s requires Src2, got %s", u.Op, u.Src2)
	}
	if n < 2 && u.Src2 != NoReg && u.Op != OpStore {
		return fmt.Errorf("isa: %s must not have Src2", u.Op)
	}
	if u.Op.IsBranch() && u.Op != OpRet {
		if u.Target < 0 {
			return fmt.Errorf("isa: %s requires a target block", u.Op)
		}
	} else if u.Target != NoTarget {
		return fmt.Errorf("isa: %s must not have a target block", u.Op)
	}
	return nil
}

// EvalALU computes the result of a non-memory, non-branch uop given its
// source values. It panics for opcodes it does not handle; callers dispatch
// memory and control ops separately.
func EvalALU(op Op, a, b, imm int64) int64 {
	switch op {
	case OpNop:
		return 0
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << uint64(b&63)
	case OpShr:
		return int64(uint64(a) >> uint64(b&63))
	case OpAddI:
		return a + imm
	case OpSubI:
		return a - imm
	case OpAndI:
		return a & imm
	case OpOrI:
		return a | imm
	case OpXorI:
		return a ^ imm
	case OpShlI:
		return a << uint64(imm&63)
	case OpShrI:
		return int64(uint64(a) >> uint64(imm&63))
	case OpMovI:
		return imm
	case OpMov:
		return a
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0 // hardware would fault; workloads never divide by zero
		}
		return a / b
	case OpFAdd:
		return a + b // latency-class stand-ins: integer semantics
	case OpFMul:
		return a * b
	case OpFDiv:
		if b == 0 {
			return 0
		}
		return a / b
	}
	panic(fmt.Sprintf("isa: EvalALU called with non-ALU opcode %s", op))
}

// BranchTaken evaluates a conditional branch's direction given its source
// values. Unconditional branches return true. It panics for non-branches.
func BranchTaken(op Op, a, b int64) bool {
	switch op {
	case OpBeq:
		return a == b
	case OpBne:
		return a != b
	case OpBlt:
		return a < b
	case OpBge:
		return a >= b
	case OpJmp, OpCall, OpRet:
		return true
	}
	panic(fmt.Sprintf("isa: BranchTaken called with non-branch opcode %s", op))
}
