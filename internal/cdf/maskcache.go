package cdf

import "cdf/internal/assoc"

// MaskCache stores one 64-bit criticality mask per basic block (§3.2,
// "Mask Cache"). Masks accumulate critical uops seen for the same block on
// different control flow paths, which is what keeps register dependence
// violations rare. The cache is periodically reset so masks from dead
// control-flow paths decay.
type MaskCache struct {
	entries assoc.Table[uint64] // tagged by block start PC; the payload is the mask

	Resets uint64
}

// NewMaskCache builds a mask cache with the given geometry.
func NewMaskCache(entries, ways int) *MaskCache {
	return &MaskCache{entries: assoc.New[uint64](entries/ways, ways)}
}

func (m *MaskCache) set(blockPC uint64) int { return int((blockPC >> 3) % uint64(m.entries.Sets())) }

// Get returns the accumulated mask for the block starting at blockPC.
func (m *MaskCache) Get(blockPC uint64) (mask uint64, ok bool) {
	if w := m.entries.Find(m.set(blockPC), blockPC); w != nil {
		m.entries.Touch(w)
		return w.V, true
	}
	return 0, false
}

// Merge ORs mask into the block's entry, allocating if needed.
func (m *MaskCache) Merge(blockPC, mask uint64) {
	w, hit := m.entries.Slot(m.set(blockPC), blockPC)
	if !hit {
		m.entries.Fill(w, blockPC, mask)
		return
	}
	w.V |= mask
	m.entries.Touch(w)
}

// Remove invalidates the block's entry (density-gate rejection, §3.2).
func (m *MaskCache) Remove(blockPC uint64) {
	if w := m.entries.Find(m.set(blockPC), blockPC); w != nil {
		w.Valid = false
	}
}

// Reset clears every mask (periodic decay, every 200k instructions).
func (m *MaskCache) Reset() {
	m.entries.Reset()
	m.Resets++
}
