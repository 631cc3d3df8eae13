// Package core — implementation guide.
//
// This file maps the paper's §3 ("Implementation") onto the code, for
// readers navigating the mechanism. The simulator is timing-first: a
// functional emulator (internal/emu) executes the program architecturally
// and acts as the oracle; the core consumes its correct-path dynamic uop
// stream (stream.go) and models when everything happens.
//
// # Baseline pipeline (config.go, core.go, frontend.go, backend.go)
//
// Fetch (regFetch) walks the oracle stream at the machine width, charging
// I-cache time per line (with a next-line prefetcher) and consulting the
// branch unit per branch. A misprediction is known at fetch (the oracle has
// the outcome); its *cost* is modelled by switching the engine onto a
// wrong path (emitWrongPath) that fills the window with slots — some of
// them loads against near-path addresses — until the branch executes in
// the backend and recoverBranch flushes and redirects. Rename/allocate
// (allocRegular) maps architectural to physical registers (regfile.go) and
// claims ROB/RS/LQ/SQ entries; the scheduler (issue) picks ready uops
// oldest-first within port classes; loads access the memory hierarchy and
// search the store queue for forwarding; stores detect ordering violations
// when their address resolves. Retire drains the ROB in program order.
//
// # The CDF mechanism (§3 -> code)
//
//   - §3.2 identification/storage: criticality.train (criticality.go)
//     updates the Critical Count Tables, decays the Mask Cache and, every
//     WalkInterval uops, collects FillBufferSize uops and walks them. The
//     core calls it at retire (trainCriticality), the sampled-mode Warmer
//     while fast-forwarding; both share one instance on absolute program
//     positions. The backwards dataflow walk and trace installation live
//     in internal/cdf (fillbuffer.go there), writing the Mask Cache and
//     Critical Uop Cache.
//
//   - §3.3 fetching critical instructions OoO: on a Critical Uop Cache hit
//     at a block boundary, enterCDF starts the critical fetch engine
//     (critFetch), which reads one trace per cycle, emits the block's
//     critical uops (marking the stream positions), and predicts the
//     block-ending branch, pushing the (direction, target) into the
//     Delayed Branch Queue. The regular engine keeps fetching *all* uops
//     from the I-cache but takes its branch outcomes from the DBQ, so both
//     streams follow the same control path.
//
//   - §3.4 renaming OoO: allocCritical renames critical uops against the
//     critical RAT (forked from the regular RAT once all pre-entry uops
//     have renamed) and records destination mappings in the Critical Map
//     Queue. When the regular stream reaches a critical position, it
//     replays the mapping from the CMQ head — keeping the regular RAT in
//     program order — and the replay marker is discarded rather than
//     allocated. Poison bits on the regular RAT catch non-critical writers
//     feeding critical readers (§3.6's dependence violations):
//     dependenceViolation flushes from the violating uop and restarts in
//     regular mode.
//
//   - §3.5 partitioning: the ROB, LQ and SQ are two program-ordered
//     sections (fifo in entry.go) with capacities managed by
//     cdf.Partition; the RS and PRF cap critical occupancy in proportion
//     to the ROB split. Stall attribution (allocCritical/allocRegular plus
//     noteCritHogging) drives the boundary; retire compares the two
//     sections' head sequence numbers.
//
//   - §3.6 pipeline changes: recoverBranch keeps CDF mode alive across
//     mispredictions of branches fetched in CDF mode (correcting the
//     branch's DBQ entry when it resolves early), ends it when recovering
//     to a pre-CDF branch, and beginCDFExit/maybeFinalizeCDFExit implement
//     the drain protocol (critical fetch stops, the regular stream
//     consumes the remaining DBQ entries, partitions shrink as the
//     critical section empties).
//
// # Precise Runahead and the hybrid
//
// ModePRE attaches internal/pre's engine: on a full-window stall whose
// head is an LLC-missing load, it walks the same Critical Uop Cache
// chains ahead of the window, prefetching with dataflow timing, for the
// stall's duration. ModeHybrid runs both: CDF where the density gates
// admit it, runahead on the stalls taken outside CDF mode (rejected
// traces stay in the CUC flagged NoEnter).
//
// # Validation hooks
//
// CheckInvariants (invariants.go) validates program order, partition
// accounting, and rename bookkeeping; tests run it per cycle. SetTracer
// (trace.go) streams per-uop pipeline events; cdfsim -trace renders them.
package core
