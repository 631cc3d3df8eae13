// Package dram models a DDR4-style main memory: channels, bank groups and
// banks with row buffers, and per-channel data buses. It stands in for
// Ramulator in the paper's methodology. The model is analytic per request —
// a request's completion time is computed when it is issued, from the state
// of its bank and channel — rather than a full FR-FCFS scheduler; this
// preserves the two properties the evaluation depends on: latency grows
// under load (bank/bus contention) and independent accesses to different
// banks overlap (bank-level parallelism, the source of MLP gains).
package dram

import "fmt"

// Config describes the memory system geometry and timing. Timings are in
// CPU cycles. The defaults model DDR4_2400R behind a 3.2 GHz core (CPU:DRAM
// clock ratio 8:3): tRP-tCL-tRCD of 16-16-16 DRAM cycles is about 43 CPU
// cycles each.
type Config struct {
	Channels      int
	BankGroups    int
	BanksPerGroup int
	RowBytes      uint64 // row-buffer size per bank
	LineBytes     uint64

	TRCD    int // activate -> column command
	TRP     int // precharge
	TCL     int // column command -> first data
	TBurst  int // data bus occupancy per line transfer
	TStatic int // fixed controller/queueing overhead per request
}

// Default returns the paper's Table 1 memory configuration: DDR4_2400R,
// 1 rank, 2 channels, 4 bank groups and 4 banks per channel, 16-16-16.
func Default() Config {
	return Config{
		Channels:      2,
		BankGroups:    4,
		BanksPerGroup: 4,
		RowBytes:      8 * 1024,
		LineBytes:     64,
		TRCD:          43,
		TRP:           43,
		TCL:           43,
		TBurst:        11, // 8 DRAM cycles of burst at the 8:3 clock ratio
		TStatic:       20,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.BankGroups <= 0 || c.BanksPerGroup <= 0 {
		return fmt.Errorf("dram: non-positive geometry %+v", c)
	}
	if c.RowBytes == 0 || c.LineBytes == 0 || c.RowBytes%c.LineBytes != 0 {
		return fmt.Errorf("dram: invalid row/line bytes %d/%d", c.RowBytes, c.LineBytes)
	}
	if c.TRCD <= 0 || c.TRP <= 0 || c.TCL <= 0 || c.TBurst <= 0 {
		return fmt.Errorf("dram: non-positive timing %+v", c)
	}
	return nil
}

type bank struct {
	openRow  uint64
	rowValid bool
	readyAt  uint64 // cycle at which the bank can accept the next command
}

type channel struct {
	banks   []bank
	busFree uint64 // cycle at which the data bus is next free
}

// DRAM is the memory system model.
type DRAM struct {
	cfg   Config
	chans []channel

	// Counters.
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	TotalLat  uint64 // sum of read latencies, for averages
}

// New returns a DRAM model for cfg. It panics on invalid configuration;
// configurations are programmer-supplied constants.
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("dram: New called with invalid config (%d channels, %d bank groups x %d banks, tRP-tCL-tRCD %d-%d-%d): %v",
			cfg.Channels, cfg.BankGroups, cfg.BanksPerGroup, cfg.TRP, cfg.TCL, cfg.TRCD, err))
	}
	d := &DRAM{cfg: cfg, chans: make([]channel, cfg.Channels)}
	for i := range d.chans {
		d.chans[i].banks = make([]bank, cfg.BankGroups*cfg.BanksPerGroup)
	}
	return d
}

// Config returns the model's configuration.
func (d *DRAM) Config() Config { return d.cfg }

// mapAddr splits a line address into channel, bank, and row indices.
// Channel and bank indices XOR-fold higher address bits into the
// interleaving bits (permutation-based interleaving, as real controllers
// do) so power-of-two strides still spread across banks and channels.
func (d *DRAM) mapAddr(addr uint64) (ch, bk int, row uint64) {
	line := addr / d.cfg.LineBytes
	mix := line ^ (line >> 5) ^ (line >> 11) ^ (line >> 17)
	ch = int(mix % uint64(d.cfg.Channels))
	line /= uint64(d.cfg.Channels)
	nbanks := uint64(d.cfg.BankGroups * d.cfg.BanksPerGroup)
	bk = int((mix >> 1) % nbanks)
	line /= nbanks
	row = line / (d.cfg.RowBytes / d.cfg.LineBytes)
	return ch, bk, row
}

// Access issues a line read or write at cycle now and returns the cycle the
// data transfer completes. Cache-line granularity; the caller is the LLC
// miss path or writeback path.
func (d *DRAM) Access(addr uint64, now uint64, write bool) uint64 {
	ch, bk, row := d.mapAddr(addr)
	c := &d.chans[ch]
	b := &c.banks[bk]

	start := max64(now+uint64(d.cfg.TStatic), b.readyAt)

	var cmdLat int
	switch {
	case b.rowValid && b.openRow == row:
		cmdLat = d.cfg.TCL
		d.RowHits++
	case b.rowValid:
		cmdLat = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCL
		d.RowMisses++
	default:
		cmdLat = d.cfg.TRCD + d.cfg.TCL
	}
	b.openRow, b.rowValid = row, true

	dataReady := start + uint64(cmdLat)
	// Serialize line transfers on the channel data bus.
	xferStart := max64(dataReady, c.busFree)
	done := xferStart + uint64(d.cfg.TBurst)
	c.busFree = done
	// The bank is busy until the column access completes; back-to-back
	// row-hit accesses to the same bank pipeline at the burst rate.
	b.readyAt = max64(start+uint64(d.cfg.TBurst), dataReady-uint64(d.cfg.TCL)+uint64(d.cfg.TBurst))

	if write {
		d.Writes++
	} else {
		d.Reads++
		d.TotalLat += done - now
	}
	return done
}

// ResetTiming clears all cycle-valued scheduling state (bank ready times,
// bus occupancy) while keeping open-row contents and lifetime counters.
// Sampled simulation calls it when the warm memory system is adopted by a
// fresh interval core whose clock restarts at zero; without the reset,
// ready times from the previous interval would stall the new core for
// millions of cycles.
func (d *DRAM) ResetTiming() {
	for ci := range d.chans {
		c := &d.chans[ci]
		c.busFree = 0
		for bi := range c.banks {
			c.banks[bi].readyAt = 0
		}
	}
}

// AvgReadLatency returns the mean read latency in cycles.
func (d *DRAM) AvgReadLatency() float64 {
	if d.Reads == 0 {
		return 0
	}
	return float64(d.TotalLat) / float64(d.Reads)
}

// Traffic returns total line transfers (reads + writes).
func (d *DRAM) Traffic() uint64 { return d.Reads + d.Writes }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
