package cdf

import (
	"fmt"
	"runtime/debug"

	"cdf/internal/core"
	"cdf/internal/emu"
)

// Sampled fast-forward is a two-stage pipeline (DESIGN.md §12). Stage A, a
// goroutine of its own, steps the master emulator and trains the branch
// predictor (core.PredictorWarmer); stage B, the sampler on the harness's
// goroutine, trains everything else (Warmer.ObserveMemCrit) from stage A's
// uops and mispredict bits. Neither stage reads what the other writes, so
// each structure sees exactly the operation sequence serial Warmer.Observe
// gives it, and results do not depend on scheduling.
//
// Stage A works in spans: catch up silently to a position the last
// interval core already trained, then step and predict up to the next
// checkpoint, handing over fixed-size batches from a small reused pool.
// The span's last batch says how it ended; stage B drains it before the
// sampler touches the master or the predictor again, and sends the next
// span only after the interval core is done with them.

const (
	// ffBatchUops is the size of one stage-A batch and ffBatches the pool
	// size: three batches of 113 KB keep both stages busy (one being
	// filled, one being trained, one queued) in 0.35 MB.
	ffBatchUops = 1024
	ffBatches   = 3

	// ffStep is how many uops stage B trains per sampler Cycle. The harness
	// checks for a stop every cycleChunk Cycles, so this sets the latency of
	// a timeout or a cancellation during fast-forward (~128K uops).
	ffStep = 32
)

// ffEnd says whether a span ended with a batch, and how.
type ffEnd uint8

const (
	ffMore       ffEnd = iota // more batches follow in this span
	ffCheckpoint              // the master reached the checkpoint
	ffHalt                    // the program halted before the checkpoint
	ffStopped                 // stage A was stopped (the run is over)
	ffPanic                   // stage A panicked; panicMsg says where
)

// ffBatch is one hand-off from stage A to stage B: n uops, each with
// whether it is a mispredicted branch.
type ffBatch struct {
	uops     []emu.DynUop
	mis      []bool
	n        int
	end      ffEnd
	panicMsg string
}

// ffSpan asks stage A to catch up silently to position catchup, then step
// and predict up to position ckpt.
type ffSpan struct{ catchup, ckpt uint64 }

// ffPipe is the pipeline's shared state. Stage A owns master and the
// predictor between receiving a span and sending that span's last batch;
// the sampler owns them otherwise.
type ffPipe struct {
	master *emu.Emulator
	pw     *core.PredictorWarmer

	// Channel sizes: at most one span is outstanding; full has room for
	// every batch plus run's end marker and free for every batch, so no
	// send on them ever blocks.
	spans chan ffSpan   // sampler → stage A
	full  chan *ffBatch // stage A → sampler
	free  chan *ffBatch // sampler → stage A
	stop  chan struct{} // closed to end stage A
	done  chan struct{} // closed when stage A has returned

	cur  *ffBatch // batch stage B is training from (nil between batches)
	next int      // cur's next untrained uop
}

// startFF builds the pipeline and starts stage A; every caller must call
// closeFF before returning.
func startFF(master *emu.Emulator, w *core.Warmer) *ffPipe {
	p := &ffPipe{
		master: master,
		pw:     w.PredictorWarmer(),
		spans:  make(chan ffSpan, 1),
		full:   make(chan *ffBatch, ffBatches+1),
		free:   make(chan *ffBatch, ffBatches),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := 0; i < ffBatches; i++ {
		p.free <- &ffBatch{uops: make([]emu.DynUop, ffBatchUops), mis: make([]bool, ffBatchUops)}
	}
	go p.run()
	return p
}

// closeFF stops stage A and waits for it to return.
func (p *ffPipe) closeFF() {
	close(p.stop)
	<-p.done
}

// run is stage A. Whatever ends it — a stop or a panic — it leaves a
// marker batch for the sampler, so a sampler still waiting for a batch is
// never left blocked.
func (p *ffPipe) run() {
	defer close(p.done)
	defer func() {
		m := &ffBatch{end: ffStopped}
		if r := recover(); r != nil {
			m.end = ffPanic
			m.panicMsg = fmt.Sprintf("cdf: fast-forward stage panicked: %v\n\nfast-forward stage stack:\n%s", r, debug.Stack())
		}
		p.full <- m
	}()
	for {
		select {
		case sp := <-p.spans:
			if !p.span(sp) {
				return
			}
		case <-p.stop:
			return
		}
	}
}

// span runs one span; it returns false if stage A was stopped.
func (p *ffPipe) span(sp ffSpan) bool {
	b := p.get()
	if b == nil {
		return false
	}
	b.n, b.end = 0, ffMore
	for p.master.Executed() < sp.catchup {
		if !p.master.Step(&b.uops[0]) {
			b.end = ffHalt
			p.full <- b
			return true
		}
	}
	for {
		p.fill(b, sp.ckpt)
		p.full <- b
		if b.end != ffMore {
			return true
		}
		if b = p.get(); b == nil {
			return false
		}
	}
}

// get takes a free batch, or returns nil if stage A is stopped first.
func (p *ffPipe) get() *ffBatch {
	select {
	case b := <-p.free:
		return b
	case <-p.stop:
		return nil
	}
}

// fill steps the master into b until b is full, the master reaches ckpt,
// or the program halts, training the predictor on each uop.
func (p *ffPipe) fill(b *ffBatch, ckpt uint64) {
	b.n, b.end = 0, ffMore
	master, pw := p.master, p.pw // read once: stage B writes p's other fields
	for b.n < len(b.uops) {
		if master.Executed() >= ckpt {
			b.end = ffCheckpoint
			return
		}
		d := &b.uops[b.n]
		if !master.Step(d) {
			b.end = ffHalt
			return
		}
		b.mis[b.n] = pw.Observe(d)
		b.n++
	}
}

// fastForward is stage B's share of one sampler Cycle: train up to ffStep
// uops of stage A's output, and act on the end of the span once its last
// batch is drained.
func (s *sampler) fastForward() {
	p := s.ff
	if p.cur == nil {
		p.cur, p.next = <-p.full, 0
	}
	b := p.cur
	end := min(p.next+ffStep, b.n)
	for i := p.next; i < end; i++ {
		s.warmer.ObserveMemCrit(&b.uops[i], b.mis[i])
	}
	p.next = end
	if end < b.n {
		return
	}
	p.cur = nil
	switch b.end {
	case ffMore:
		p.free <- b
	case ffCheckpoint:
		p.free <- b
		s.beginInterval()
	case ffHalt:
		p.free <- b
		s.finishEarly()
	case ffStopped:
		// Only a sampler the harness has abandoned gets here: the run has
		// already returned.
		s.phase = phaseDone
	case ffPanic:
		panic(b.panicMsg)
	}
}
