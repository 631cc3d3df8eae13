// Package branch implements the frontend's branch prediction: a TAGE
// conditional predictor (the paper baselines on TAGE-SC-L; we implement the
// TAGE component, which sets per-branch predictability classes — the SC/L
// correctors are omitted and documented in DESIGN.md), a branch target
// buffer, and a return address stack.
package branch

import (
	"fmt"
	"math"
)

// TageConfig sizes the TAGE predictor.
type TageConfig struct {
	BimodalBits uint // log2 entries of the base bimodal table
	NumTables   int  // tagged components
	TableBits   uint // log2 entries per tagged table
	TagBits     uint
	MinHist     int // shortest history length
	MaxHist     int // longest history length (geometric in between)
	CounterBits uint
	UsefulReset uint64 // period (updates) for graceful useful-bit aging
}

// DefaultTage returns a 64Kb-class TAGE configuration.
func DefaultTage() TageConfig {
	return TageConfig{
		BimodalBits: 13,
		NumTables:   8,
		TableBits:   10,
		TagBits:     9,
		MinHist:     4,
		MaxHist:     256,
		CounterBits: 3,
		UsefulReset: 1 << 18,
	}
}

type tageEntry struct {
	tag    uint32
	ctr    int8 // signed saturating counter, taken when >= 0
	useful uint8
}

// maxTageTables bounds NumTables so PredInfo can carry per-table lookup
// state in fixed arrays: Predict runs on the fetch hot path and must not
// allocate.
const maxTageTables = 16

// PredInfo carries the lookup state needed for a correct TAGE update.
type PredInfo struct {
	provider  int  // table index of provider, -1 for bimodal
	altPred   bool // alternate prediction
	provPred  bool // provider prediction
	provIdx   uint32
	provTag   uint32
	indices   [maxTageTables]uint32
	tags      [maxTageTables]uint32
	bimodalIx uint32
	Pred      bool // final prediction
}

// Tage is the conditional-direction predictor.
type Tage struct {
	cfg      TageConfig
	bimodal  []int8
	tables   [][]tageEntry
	histLens []int
	ghist    []uint64 // raw history bits, as a shift register in words
	histBits int
	updates  uint64

	// Incrementally folded history registers, one set per tagged table:
	// the index fold (TableBits wide) and the two tag folds (TagBits and
	// TagBits-1 wide). Maintained in O(1) per history shift; always equal
	// to foldHistory over the raw register (TestTageFoldedIncremental).
	// Recomputing the folds on every Predict dominated simulation
	// profiles — 3 folds x NumTables x O(histLen/bits) per branch.
	foldIdx  [maxTageTables]uint64
	foldTag1 [maxTageTables]uint64
	foldTag2 [maxTageTables]uint64

	// hist holds each table's history constants, so a history shift does
	// no division: where its oldest bit sits in ghist, and each fold's
	// width, mask and evicted-bit position.
	hist        [maxTageTables]tableHist
	bimodalMask uint64
}

// NewTage builds a TAGE predictor.
func NewTage(cfg TageConfig) *Tage {
	if cfg.NumTables <= 0 || cfg.NumTables > maxTageTables || cfg.MinHist <= 0 || cfg.MaxHist < cfg.MinHist {
		panic(fmt.Sprintf("branch: invalid TAGE config %+v (NumTables must be 1..%d)", cfg, maxTageTables))
	}
	t := &Tage{
		cfg:     cfg,
		bimodal: make([]int8, 1<<cfg.BimodalBits),
		tables:  make([][]tageEntry, cfg.NumTables),
	}
	// Geometric history lengths between MinHist and MaxHist.
	t.histLens = make([]int, cfg.NumTables)
	ratio := 1.0
	if cfg.NumTables > 1 {
		ratio = pow(float64(cfg.MaxHist)/float64(cfg.MinHist), 1.0/float64(cfg.NumTables-1))
	}
	l := float64(cfg.MinHist)
	for i := range t.histLens {
		t.histLens[i] = int(l + 0.5)
		if i > 0 && t.histLens[i] <= t.histLens[i-1] {
			t.histLens[i] = t.histLens[i-1] + 1
		}
		l *= ratio
	}
	for i, hl := range t.histLens {
		t.hist[i] = tableHist{
			evictWord:  (hl - 1) / 64,
			evictShift: uint((hl - 1) % 64),
			idx:        newFold(hl, int(cfg.TableBits)),
			tag1:       newFold(hl, int(cfg.TagBits)),
			tag2:       newFold(hl, int(cfg.TagBits)-1),
		}
	}
	t.bimodalMask = maskBits(int(cfg.BimodalBits))
	t.histBits = t.histLens[cfg.NumTables-1]
	t.ghist = make([]uint64, (t.histBits+63)/64+1)
	for i := range t.tables {
		t.tables[i] = make([]tageEntry, 1<<cfg.TableBits)
	}
	return t
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// HistoryLengths returns the per-table history lengths (for tests).
func (t *Tage) HistoryLengths() []int { return append([]int(nil), t.histLens...) }

// tableHist is one tagged table's history constants: the ghist word and
// bit of its oldest history bit (position histLen-1), and its index fold
// and two tag folds.
type tableHist struct {
	evictWord       int
	evictShift      uint
	idx, tag1, tag2 fold
}

// fold is one folded-history register's width, mask, and the chunk
// position histLen%bits that the evicted bit would shift into.
type fold struct {
	bits, off uint
	mask      uint64
}

func newFold(histLen, bits int) fold {
	return fold{bits: uint(bits), off: uint(histLen % bits), mask: maskBits(bits)}
}

// foldStep advances one folded-history register by a single history shift:
// b is the incoming outcome bit, evict the outgoing bit (history position
// histLen-1 before the shift). The recurrence shifts every fold chunk left
// by one; the XOR of the chunk carry bits reappears at position 0 via the
// x>>bits term, and the evicted bit — which the shift would move to chunk
// position histLen%bits, outside the history window — is cancelled.
func foldStep(f, b, evict uint64, fd *fold) uint64 {
	x := (f << 1) | b
	x ^= evict << fd.off
	x ^= x >> fd.bits
	return x & fd.mask
}

// foldHistory folds the low histLen bits of global history into bits bits.
// It is the reference computation the incremental registers must match;
// kept for the equivalence test rather than the hot path.
func (t *Tage) foldHistory(histLen, bits int) uint64 {
	var folded uint64
	for b := 0; b < histLen; b += bits {
		n := bits
		if b+n > histLen {
			n = histLen - b
		}
		folded ^= t.histBitsAt(b, n)
	}
	return folded & maskBits(bits)
}

// histBitsAt extracts n history bits starting at position pos (0 = newest).
func (t *Tage) histBitsAt(pos, n int) uint64 {
	word, off := pos/64, pos%64
	v := t.ghist[word] >> uint(off)
	if off+n > 64 {
		v |= t.ghist[word+1] << uint(64-off)
	}
	return v & maskBits(n)
}

func maskBits(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}

func (t *Tage) index(pc uint64, table int) uint32 {
	h := t.foldIdx[table]
	v := (pc >> 2) ^ (pc >> (uint(t.cfg.TableBits) + 2)) ^ h ^ uint64(table)*0x9E3779B9
	return uint32(v & t.hist[table].idx.mask)
}

func (t *Tage) tag(pc uint64, table int) uint32 {
	h := t.foldTag1[table]
	h2 := t.foldTag2[table]
	v := (pc >> 2) ^ h ^ (h2 << 1)
	return uint32(v & t.hist[table].tag1.mask)
}

func (t *Tage) bimodalIndex(pc uint64) uint32 {
	return uint32((pc >> 2) & t.bimodalMask)
}

// Predict writes into info the predicted direction for the conditional
// branch at pc along with the state needed by Update. Every field Update
// reads is overwritten, so info may be reused across calls.
func (t *Tage) Predict(pc uint64, info *PredInfo) {
	info.provider = -1
	info.bimodalIx = t.bimodalIndex(pc)
	bim := t.bimodal[info.bimodalIx] >= 0
	pred, alt := bim, bim
	for i := 0; i < t.cfg.NumTables; i++ {
		info.indices[i] = t.index(pc, i)
		info.tags[i] = t.tag(pc, i)
	}
	// Longest history match provides; next longest is the alternate.
	for i := t.cfg.NumTables - 1; i >= 0; i-- {
		e := &t.tables[i][info.indices[i]]
		if e.tag == info.tags[i] {
			if info.provider < 0 {
				info.provider = i
				info.provIdx = info.indices[i]
				info.provTag = info.tags[i]
				pred = e.ctr >= 0
			} else {
				alt = e.ctr >= 0
				break
			}
		}
	}
	if info.provider >= 0 {
		info.provPred = pred
		// Weak provider entries defer to the alternate prediction
		// (newly-allocated entries are unreliable).
		e := &t.tables[info.provider][info.provIdx]
		if (e.ctr == 0 || e.ctr == -1) && e.useful == 0 {
			pred = alt
		}
	}
	info.altPred = alt
	info.Pred = pred
}

// Update trains the predictor with the resolved outcome and then shifts the
// global history. Callers must invoke it exactly once per predicted branch,
// in program order.
func (t *Tage) Update(pc uint64, taken bool, info *PredInfo) {
	t.updates++
	correct := info.Pred == taken

	if info.provider >= 0 {
		e := &t.tables[info.provider][info.provIdx]
		if e.tag == info.provTag {
			e.ctr = satUpdate(e.ctr, taken, int(t.cfg.CounterBits))
			if info.provPred != info.altPred {
				if info.provPred == taken {
					if e.useful < 3 {
						e.useful++
					}
				} else if e.useful > 0 {
					e.useful--
				}
			}
		}
	} else {
		t.bimodal[info.bimodalIx] = satUpdate(t.bimodal[info.bimodalIx], taken, 2)
	}

	// Allocate a new entry in a longer-history table on a misprediction.
	if !correct && info.provider < t.cfg.NumTables-1 {
		start := info.provider + 1
		allocated := false
		for i := start; i < t.cfg.NumTables; i++ {
			e := &t.tables[i][info.indices[i]]
			if e.useful == 0 {
				e.tag = info.tags[i]
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				e.useful = 0
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay useful bits along the allocation path.
			for i := start; i < t.cfg.NumTables; i++ {
				e := &t.tables[i][info.indices[i]]
				if e.useful > 0 {
					e.useful--
				}
			}
		}
	}

	// Periodic graceful reset of useful bits.
	if t.cfg.UsefulReset > 0 && t.updates%t.cfg.UsefulReset == 0 {
		for i := range t.tables {
			for j := range t.tables[i] {
				t.tables[i][j].useful >>= 1
			}
		}
	}

	t.shiftHistory(taken)
}

// shiftHistory pushes one outcome bit into the global history register and
// advances every folded register (the evicted bit is read before the raw
// shift).
func (t *Tage) shiftHistory(taken bool) {
	b := uint64(0)
	if taken {
		b = 1
	}
	for i := 0; i < t.cfg.NumTables; i++ {
		h := &t.hist[i]
		evict := t.ghist[h.evictWord] >> h.evictShift & 1
		t.foldIdx[i] = foldStep(t.foldIdx[i], b, evict, &h.idx)
		t.foldTag1[i] = foldStep(t.foldTag1[i], b, evict, &h.tag1)
		t.foldTag2[i] = foldStep(t.foldTag2[i], b, evict, &h.tag2)
	}
	carry := b
	for i := range t.ghist {
		next := t.ghist[i] >> 63
		t.ghist[i] = (t.ghist[i] << 1) | carry
		carry = next
	}
}

func satUpdate(c int8, taken bool, bits int) int8 {
	lo := int8(-(1 << uint(bits-1)))
	hi := int8(1<<uint(bits-1)) - 1
	if taken {
		if c < hi {
			c++
		}
	} else {
		if c > lo {
			c--
		}
	}
	return c
}
