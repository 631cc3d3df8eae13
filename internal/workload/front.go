package workload

import (
	"cdf/internal/emu"
	"cdf/internal/prog"
)

// The frontend-bound family (DESIGN.md §13): kernels whose bottleneck is
// instruction *supply* rather than data misses — the workload class the
// instruction-supply subsystem (FDIP, shadow-branch decoding) exists to
// serve. They sit outside the paper's data-side SPEC suite
// (Frontend: true keeps them out of the Fig. 13–17 default sweeps) and are
// driven by the FrontSupply experiment instead. Their control flow is kept
// fully predictable on purpose — unrolled call sweeps, no data-dependent
// branches — so direction mispredicts don't bury the I-miss and BTB-miss
// signal each kernel is built to expose.

func init() {
	register(Workload{
		Name: "server", SPEC: "server-like (beyond the paper's suite)",
		Phenotype: "L1I-capacity-bound request loop: ~80KB of handler code swept per iteration against a 32KB L1I",
		Expect:    "neither",
		Frontend:  true,
		Build:     buildServer,
	})
	register(Workload{
		Name: "interp", SPEC: "interpreter-like (beyond the paper's suite)",
		Phenotype: "BTB-capacity-bound handler sweep: ~4900 taken-branch sites against a 4096-entry BTB",
		Expect:    "neither",
		Frontend:  true,
		Build:     buildInterp,
	})
	register(Workload{
		Name: "deepcall", SPEC: "recursion-like (beyond the paper's suite)",
		Phenotype: "call/return-bound towers deeper than the 32-entry RAS, with an L1I-exceeding code footprint",
		Expect:    "neither",
		Frontend:  true,
		Build:     buildDeepcall,
	})
}

// buildServer is the L1I-capacity kernel: 512 distinct request handlers
// (~80KB of code against a 32KB L1I) called in an unrolled sweep, so every
// line of every handler cold-misses the L1I on each pass while control flow
// stays perfectly predictable (calls, returns, and static jumps only). Each
// handler carries one internal taken jump — a shadow-decodable branch on
// the handler's own lines.
func buildServer() (*prog.Program, *emu.Memory) {
	const handlers = 512
	m := emu.NewMemory()

	b := prog.NewBuilder("server")
	// Handler bodies first (reached only via Call).
	entry := b.ReserveLabel()
	b.Jmp(entry)
	handler := make([]int, handlers)
	for h := 0; h < handlers; h++ {
		handler[h] = b.Label()
		filler(b, 8)
		second := b.ReserveLabel()
		b.Jmp(second) // taken in-handler branch for the shadow decoder
		b.Place(second)
		filler(b, 8)
		b.Ret()
	}

	b.Place(entry)
	b.MovI(r(0), 0)
	b.MovI(r(1), forever)

	loop := b.Label()
	for h := 0; h < handlers; h++ {
		b.Call(handler[h])
	}
	b.SubI(r(1), r(1), 1)
	b.Bne(r(1), r(0), loop)
	b.Halt()
	return b.MustProgram(), m
}

// buildInterp is the BTB-capacity kernel: 256 bytecode handlers, each a
// chain of 16 short segments linked by taken jumps — ~4900 taken-branch
// sites against the 4096-entry BTB, so the main BTB thrashes every sweep
// while the larger shadow BTB retains every decoded site. This is the
// kernel where plain FDIP is reach-limited (the walker cannot see past a
// taken branch whose target no structure supplies) and shadow-branch
// decoding restores the prefetcher's reach.
func buildInterp() (*prog.Program, *emu.Memory) {
	const (
		handlers = 256
		segments = 16
	)
	m := emu.NewMemory()

	b := prog.NewBuilder("interp")
	entry := b.ReserveLabel()
	b.Jmp(entry)
	handler := make([]int, handlers)
	for h := 0; h < handlers; h++ {
		handler[h] = b.Label()
		for s := 0; s < segments; s++ {
			b.AddI(r(24), r(24), int64(h+s))
			b.XorI(r(25), r(25), int64(s))
			b.AddI(r(26), r(26), 3)
			next := b.ReserveLabel()
			b.Jmp(next) // segment link: one more taken-branch site
			b.Place(next)
		}
		b.Ret()
	}

	b.Place(entry)
	b.MovI(r(0), 0)
	b.MovI(r(1), forever)

	loop := b.Label()
	for h := 0; h < handlers; h++ {
		b.Call(handler[h])
	}
	b.SubI(r(1), r(1), 1)
	b.Bne(r(1), r(0), loop)
	b.Halt()
	return b.MustProgram(), m
}

// buildDeepcall is the call/return kernel: towers of nested calls 64 deep —
// twice the 32-entry RAS, so the upper half of every unwind returns through
// a clobbered stack — across enough distinct functions (~50KB of code) that
// the towers also contend for the L1I.
func buildDeepcall() (*prog.Program, *emu.Memory) {
	const (
		towers = 8
		depth  = 64
	)
	m := emu.NewMemory()

	b := prog.NewBuilder("deepcall")
	entry := b.ReserveLabel()
	b.Jmp(entry)
	// Emit each tower leaf-first so Call targets already exist.
	top := make([]int, towers)
	for t := 0; t < towers; t++ {
		next := -1
		for d := depth - 1; d >= 0; d-- {
			lbl := b.Label()
			filler(b, 6)
			if next >= 0 {
				b.Call(next)
				filler(b, 4)
			}
			b.Ret()
			next = lbl
		}
		top[t] = next
	}

	b.Place(entry)
	b.MovI(r(0), 0)
	b.MovI(r(1), forever)

	loop := b.Label()
	for t := 0; t < towers; t++ {
		b.Call(top[t])
	}
	b.SubI(r(1), r(1), 1)
	b.Bne(r(1), r(0), loop)
	b.Halt()
	return b.MustProgram(), m
}
