package core

import (
	"sync"

	"cdf/internal/emu"
)

// streamRec is one dynamic uop in the lookahead window, with per-position
// frontend bookkeeping flags.
type streamRec struct {
	dyn       emu.DynUop
	critEntry *entry
	epoch     uint32
	// fetchedCritical: this position was fetched by the CDF critical
	// frontend; the regular stream replays (discards) it at rename. Valid
	// only when epoch matches the core's current CDF epoch.
	fetchedCritical bool
	// markedCritical: the observe-only criticality mark (mask machinery),
	// for Fig. 1 sampling in the baseline and for wrong-path rate tuning.
	markedCritical bool
}

// Records live in fixed-size pages (512 records, 64 KB), so a widening
// window — a CDF episode keeps everything since its entry point live — is
// never re-grown or copied. Released pages go to pagePool, which every
// core in the process draws from; the garbage collector empties it, so
// it never holds pages that no run has needed for two collections.
const (
	pageShift = 9
	pageMask  = 1<<pageShift - 1
)

type streamPage [1 << pageShift]streamRec

var pagePool = sync.Pool{New: func() any { return new(streamPage) }}

func freeStreamPages(ps []*streamPage) {
	for _, p := range ps {
		pagePool.Put(p)
	}
}

// stream is the correct-path oracle window: upcoming dynamic uops generated
// on demand from the functional emulator. Both fetch engines index into it
// by dynamic sequence number; retired positions are released, a page at a
// time, once all pipeline references are gone.
type stream struct {
	em     *emu.Emulator
	pages  []*streamPage // pages[i] holds positions base+i<<pageShift onwards
	base   uint64        // Seq of pages[0][0]
	end    uint64        // Seq one past the last generated uop
	halted bool
}

func newStream(em *emu.Emulator) *stream {
	return &stream{em: em}
}

// slot returns the storage for position seq in [base, end] (end itself
// only when its page exists).
func (s *stream) slot(seq uint64) *streamRec {
	off := seq - s.base
	return &s.pages[off>>pageShift][off&pageMask]
}

// At returns the record for dynamic position seq, generating the stream up
// to it as needed. It returns nil once the program has halted before seq.
func (s *stream) At(seq uint64) *streamRec {
	if seq < s.base {
		panic("core: stream access below released base")
	}
	for seq >= s.end {
		if s.halted {
			return nil
		}
		if s.end-s.base == uint64(len(s.pages))<<pageShift {
			s.pages = append(s.pages, pagePool.Get().(*streamPage))
		}
		rec := s.slot(s.end)
		rec.critEntry, rec.epoch = nil, 0
		rec.fetchedCritical, rec.markedCritical = false, false
		if !s.em.Step(&rec.dyn) {
			s.halted = true
			return nil
		}
		s.end++
		if rec.dyn.Last {
			s.halted = true
		}
	}
	return s.slot(seq)
}

// peek returns the record at seq if it is resident, without generating new
// stream positions (At runs the emulator; flush bookkeeping must not).
func (s *stream) peek(seq uint64) *streamRec {
	if seq < s.base || seq >= s.end {
		return nil
	}
	return s.slot(seq)
}

// Release frees the pages wholly older than seq (everything < seq is
// retired and no longer referenced).
func (s *stream) Release(seq uint64) {
	if seq <= s.base {
		return
	}
	n := int((min(seq, s.end) - s.base) >> pageShift)
	freeStreamPages(s.pages[:n])
	m := copy(s.pages, s.pages[n:])
	clearTail(s.pages, m)
	s.pages = s.pages[:m]
	s.base += uint64(n) << pageShift
}

// recycle frees every page and leaves the stream empty and halted: peek
// finds nothing and At generates nothing.
func (s *stream) recycle() {
	freeStreamPages(s.pages)
	s.pages, s.base, s.halted = nil, s.end, true
}

// Halted reports whether the emulator has produced its final uop.
func (s *stream) Halted() bool { return s.halted }
