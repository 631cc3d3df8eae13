// Package emu provides the functional emulator: it executes programs
// architecturally and serves as the timing model's oracle for correct-path
// dynamic uops (addresses, values, branch outcomes).
package emu

import "cdf/internal/prog"

// Memory is sparse 64-bit-word-addressable data memory. Workload kernels
// use 8-byte-aligned accesses exclusively, so words are keyed by addr>>3.
// The timing model never reads values from Memory; only the emulator does.
//
// Besides explicit writes, Memory supports procedural regions: address
// ranges whose initial contents are computed by a function. Workloads use
// them to give kernels multi-gigabyte synthetic footprints (pointer graphs,
// random index arrays) without materializing the data. Explicit writes
// overlay region contents.
type Memory struct {
	words   map[uint64]int64
	regions []Region
}

// Region is a procedurally-initialized address range [Lo, Hi).
type Region struct {
	Lo, Hi uint64
	Fn     func(addr uint64) int64
}

// NewMemory returns an empty memory; unwritten words read as zero.
func NewMemory() *Memory {
	return &Memory{words: make(map[uint64]int64)}
}

// AddRegion registers a procedural region. Later regions win on overlap.
func (m *Memory) AddRegion(lo, hi uint64, fn func(addr uint64) int64) {
	m.regions = append(m.regions, Region{Lo: lo, Hi: hi, Fn: fn})
}

// Read64 returns the 64-bit word at addr (aligned down to 8 bytes).
func (m *Memory) Read64(addr uint64) int64 {
	if v, ok := m.words[addr>>3]; ok {
		return v
	}
	a := addr &^ 7
	for i := len(m.regions) - 1; i >= 0; i-- {
		r := &m.regions[i]
		if a >= r.Lo && a < r.Hi {
			return r.Fn(a)
		}
	}
	return 0
}

// Write64 stores v at addr (aligned down to 8 bytes).
func (m *Memory) Write64(addr uint64, v int64) {
	m.words[addr>>3] = v
}

// Footprint returns the number of distinct words explicitly written.
func (m *Memory) Footprint() int { return len(m.words) }

// Clone returns an independent copy of m: explicit writes are deep-copied,
// procedural regions are shared (their functions are pure). The differential
// oracle clones a workload's memory before the timing core's lookahead
// emulator starts mutating it, so the reference emulator executes against
// untouched initial state.
func (m *Memory) Clone() *Memory {
	w := make(map[uint64]int64, len(m.words))
	for k, v := range m.words {
		w[k] = v
	}
	return &Memory{words: w, regions: append([]Region(nil), m.regions...)}
}

// BuildMemory materializes a prog.MemSpec: every region reads as
// SplitMix64(addr ^ Salt). The fuzz and oracle tests build the initial
// memory of prog.Generate's programs through this.
func BuildMemory(spec prog.MemSpec) *Memory {
	m := NewMemory()
	for _, r := range spec {
		salt := r.Salt
		m.AddRegion(r.Lo, r.Hi, func(a uint64) int64 {
			return int64(SplitMix64(a ^ salt))
		})
	}
	return m
}

// SplitMix64 is a deterministic address/value hash for procedural regions.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
