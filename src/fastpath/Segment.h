//===- Segment.h - Resumable fast-path execution context --------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SegmentContext runs a fastpath::Translated stream with the resumable
/// contract of sim::AllocContext: resume() executes until the run
/// completes or a memory reference is issued, memory data effects apply
/// at issue, and the caller decides what the reference costs and pays it
/// with charge(). That lets chip::Chip drive each hardware context on
/// the translated fast path between swap points while keeping the
/// discrete-event schedule — swap order, channel contention, stall
/// cycles, ring traces, final memory images — bit-identical to the
/// interpreted chip.
///
/// The trick that makes the flat stream resumable is the same cold-data
/// algebra the Engine uses for traps, applied at yields: the yielding
/// memory op materializes exact interpreter counts from (base + cold),
/// and re-entry recomputes the bases from the updated counters
/// (StartCyc = R.Cycles - CycPrefix), absorbing whatever
/// contention-dependent latency the caller charged between bursts.
/// Memory-op flat costs (FastOp::Y) are never self-charged here — the
/// caller owns them, exactly like the interpreter's yield contract.
///
/// Exactness escape hatches match the Engine: blocks that can observe
/// per-instruction state run on the slow tier, which is the interpreter's
/// own resumable step function (sim::step, src/sim/Step.h) over this
/// context's frame — one copy of the Err-latch timing, injector draw
/// order, and spill-window rebasing.
///
//===----------------------------------------------------------------------===//

#ifndef FASTPATH_SEGMENT_H
#define FASTPATH_SEGMENT_H

#include "fastpath/FastPath.h"
#include "sim/ExecContext.h"

namespace nova {
namespace fastpath {

/// A resumable fast-path execution of one Translated program: private
/// register frame, a stream PC, and in-progress RunResult accounting.
/// Drop-in for sim::AllocContext in the chip's context-swap loop.
class SegmentContext {
public:
  using Yield = sim::AllocContext::Yield;

  SegmentContext() = default;
  explicit SegmentContext(const Translated *Tr) { setProgram(Tr); }

  void setProgram(const Translated *Tr);
  const Translated *translated() const { return T; }

  /// Per-context spill window displacement in scratch words (see
  /// sim::AllocContext). 0 = run at the program's own spill addresses.
  void setSpillRebase(uint32_t Words) { SpillRebase = Words; }

  /// Re-targets the context at a fresh run. On a malformed entry the
  /// context is immediately done() with the trap in result().
  void reset(const std::vector<uint32_t> &Args);

  bool done() const { return Finished; }
  const sim::RunResult &result() const { return R; }
  sim::RunResult takeResult() { return std::move(R); }

  /// Discards an in-progress run, mirroring sim::AllocContext::abort():
  /// the context becomes done() with an empty (non-Ok) result, all
  /// resume bookkeeping (slow-tier position, fast-yield latch, cold-data
  /// bases) is cleared, and reset() starts a fresh attempt. The chip
  /// supervisor's recovery path relies on this working identically in
  /// both exec modes.
  void abort() {
    Finished = true;
    InSlow = false;
    FastYield = false;
    Pos = sim::StepPos();
    PC = YieldPC = 0;
    Ins = Cyc = StartIns = StartCyc = 0;
    R = sim::RunResult();
    R.Ok = false;
  }

  /// Adds externally-decided cycles (memory latency, queueing delay) to
  /// the run's cycle count.
  void charge(uint64_t Cycles) { R.Cycles += Cycles; }

  /// Executes until the next swap point. Requires !done(). Opts.Lat must
  /// be the model the program was translated with.
  Yield resume(sim::Memory &Mem, const sim::RunOptions &Opts);

  /// Checkpoint serialization of the resumable run state (frame, PCs,
  /// cold-data bases, accounting). The Translated binding and spill
  /// rebase are construction-time configuration and are NOT saved —
  /// restore into a context already wired via setProgram() to the same
  /// (deterministically re-translated) program.
  void saveState(BinWriter &W) const;
  void restoreState(BinReader &R);

private:
  const Translated *T = nullptr;
  std::vector<uint32_t> Frame;
  sim::RunResult R;
  bool Finished = true; ///< no run in progress until reset()
  bool InSlow = false;  ///< resuming inside the per-instruction tier
  bool FastYield = false; ///< resuming after a fast-tier memory yield
  uint32_t SpillRebase = 0;
  uint32_t PC = 0;      ///< fast-tier op index
  uint32_t YieldPC = 0; ///< the memory op the last fast burst yielded at
  uint64_t Ins = 0, Cyc = 0;         ///< exact at block boundaries
  uint64_t StartIns = 0, StartCyc = 0; ///< bases for cold-data exits
  sim::StepPos Pos;     ///< slow-tier position and illegal-register latch
};

} // namespace fastpath
} // namespace nova

#endif // FASTPATH_SEGMENT_H
