package cdf

import "cdf/internal/assoc"

// CountTable is a Critical Count Table (§3.2): a small set-associative table
// keyed by instruction PC, with two saturating counters per entry — one with
// a strict threshold, one permissive. Counters increment on a "critical
// event" (LLC miss for loads, misprediction for branches) and decrement
// otherwise. Which counter drives prediction is selected dynamically from
// the measured critical-instruction density.
type CountTable struct {
	strictMax, strictThresh int
	permMax, permThresh     int
	// incStep is the increment applied on a critical event (decrements are
	// always 1). Loads use 1 — an LLC-missing load misses most of the time
	// or not at all. Branch counters use a larger step so that branches
	// mispredicting well below 50% of the time (which is what
	// "hard-to-predict" means against TAGE) still saturate.
	incStep int

	entries assoc.Table[counters]

	// usePermissive selects the permissive counters for prediction; flipped
	// by the density controller.
	usePermissive bool

	Updates uint64
}

// counters is an entry's payload: its strict and permissive counters.
type counters struct {
	strict, perm int
}

// NewCountTable builds a count table from the per-kind parameters. incStep
// is the counter increment on a critical event (see the field doc).
func NewCountTable(entries, ways, strictMax, strictThresh, permMax, permThresh, incStep int) *CountTable {
	if incStep <= 0 {
		incStep = 1
	}
	return &CountTable{
		strictMax: strictMax, strictThresh: strictThresh,
		permMax: permMax, permThresh: permThresh,
		incStep: incStep,
		entries: assoc.New[counters](entries/ways, ways),
	}
}

// UsePermissive switches between the strict and permissive counters.
func (t *CountTable) UsePermissive(p bool) { t.usePermissive = p }

// Permissive reports which counter set drives predictions.
func (t *CountTable) Permissive() bool { return t.usePermissive }

func (t *CountTable) set(pc uint64) int { return int((pc >> 3) % uint64(t.entries.Sets())) }

// Update trains the entry for pc: critical=true increments both counters,
// false decrements. Missing entries are allocated (evicting LRU).
func (t *CountTable) Update(pc uint64, critical bool) {
	t.Updates++
	w, hit := t.entries.Slot(t.set(pc), pc)
	switch {
	case hit:
		t.entries.Touch(w)
	case critical:
		t.entries.Fill(w, pc, counters{})
	default:
		// Only allocate on a critical event; tracking never-critical PCs
		// wastes the tiny table.
		return
	}
	e := &w.V
	if critical {
		if e.strict += t.incStep; e.strict > t.strictMax {
			e.strict = t.strictMax
		}
		if e.perm += t.incStep; e.perm > t.permMax {
			e.perm = t.permMax
		}
	} else {
		if e.strict > 0 {
			e.strict--
		}
		if e.perm > 0 {
			e.perm--
		}
	}
}

// Predict reports whether the instruction at pc is predicted critical.
func (t *CountTable) Predict(pc uint64) bool {
	w := t.entries.Find(t.set(pc), pc)
	if w == nil {
		return false
	}
	if t.usePermissive {
		return w.V.perm >= t.permThresh
	}
	return w.V.strict >= t.strictThresh
}
