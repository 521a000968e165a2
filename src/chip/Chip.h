//===- Chip.h - Whole-chip IXP1200 simulation --------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full-chip simulation of the paper's deployment shape (Section 2): an
/// RX scheduler shards arriving packets across processing micro-engines
/// through bounded scratch rings; each processing ME multiplexes four
/// hardware contexts, swapping whenever a context issues a memory
/// reference; completions flow through a shared ring to a TX scheduler
/// that retires packets in arrival order. Scratch, SRAM, and SDRAM sit
/// behind per-space transaction channels with finite issue bandwidth, so
/// cross-engine memory contention is a measured quantity (stall cycles),
/// not an assumption.
///
/// The simulation is discrete-event on a single OS thread: events pop in
/// (time, insertion sequence) order — from a cycle-bucketed calendar
/// queue, exact by construction — so every run with the same inputs is
/// bit-identical: same RunStats, same ring traces, same final SDRAM
/// image. Context swap is non-preemptive and happens only at
/// memory references (the IXP1200's actual swap points); each ME serves
/// its runnable contexts in FIFO order, so a context parked on a long
/// SDRAM access re-enters at the queue tail and cannot starve.
///
/// Modeling notes (documented simplifications):
///  - Memory *data* effects apply at issue, in deterministic event
///    order; the channel model shapes timing only. Packets cannot
///    observe each other's data anyway: each in-flight packet owns a
///    private SDRAM slot (ChipParams::SlotStride) that RX scrubs and
///    rebases pointer arguments into, and each hardware context owns a
///    private spill window in scratch (AllocContext::setSpillRebase).
///  - Packets whose pointer arguments are too large to rebase (hostile
///    near-limit fuzz) run quarantined: on a private copy of the
///    pristine base image, concurrently with everyone else. Their
///    timing still flows through the shared channels, but their data
///    can neither corrupt nor observe other packets, and they see
///    exactly the fresh memory a standalone oracle run sees.
///  - Ring pushes/pops and spill traffic cost scratch-channel
///    transactions but do not occupy ME issue slots.
///  - MachineParams::MeCount counts *processing* micro-engines. The RX
///    and TX schedulers (which the paper runs on dedicated engines) are
///    modeled as event-driven agents whose DMA and ring traffic contends
///    on the shared channels but who do not execute micro-engine code.
///
//===----------------------------------------------------------------------===//

#ifndef CHIP_CHIP_H
#define CHIP_CHIP_H

#include "alloc/Allocated.h"
#include "chip/Ring.h"
#include "chip/Supervisor.h"
#include "sim/Simulator.h"
#include "support/Status.h"

#include <functional>
#include <memory>
#include <vector>

namespace nova {
namespace chip {

/// Chip-level configuration: the shared machine description plus the
/// queueing/isolation knobs of the whole-chip model.
/// How hardware contexts execute their program between swap points.
/// Both models yield at the same memory references with the same data
/// effects and burst cycles, so the discrete-event schedule — and every
/// stat derived from it — is bit-identical between them.
enum class ExecModel : uint8_t {
  Interp,  ///< sim::AllocContext: resumable per-instruction interpreter
  Threaded ///< fastpath::SegmentContext: resumable translated fast path
};

struct ChipParams {
  ixp::MachineParams MP; ///< topology, clock, latencies, issue intervals

  /// Context execution model (see ExecModel).
  ExecModel Exec = ExecModel::Interp;

  /// Capacity of each RX->ME input ring and of the shared ME->TX ring.
  unsigned RingDepth = 4;
  /// Per-packet instruction watchdog (hostile packets trap => drop).
  uint64_t Budget = 50'000;
  /// SDRAM words per in-flight packet slot. Pointer arguments below the
  /// stride are rebased into the packet's slot; larger ones mark the
  /// packet for quarantined (tail) execution on a private memory image.
  /// A small stride means more concurrent slots, which is what lets
  /// later packets keep the contexts busy while a slow (watchdog-bound)
  /// packet heads the in-order retirement queue.
  uint32_t SlotStride = 0x10000;

  /// Armed chip-grade fault schedule (empty = no faults, no supervisor
  /// ticks: the run is event-for-event identical to an unsupervised
  /// chip). See chip::Supervisor for the fault kinds and policy.
  FaultSchedule Faults;
  /// Detection/recovery thresholds; only consulted when Faults is
  /// non-empty.
  SupervisorConfig Sup;

  /// The single-ME latency model this chip implies (same constants the
  /// standalone simulator reads from MachineParams).
  sim::LatencyModel latency() const {
    sim::LatencyModel L;
    L.Alu = MP.AluCycles;
    L.Branch = MP.BranchCycles;
    L.Imm = MP.ImmCycles;
    L.SramAccess = MP.SramAccessCycles;
    L.SdramAccess = MP.SdramAccessCycles;
    L.ScratchAccess = MP.ScratchAccessCycles;
    L.HashOp = MP.HashCycles;
    return L;
  }

  /// Structural sanity: nonzero topology within supported bounds,
  /// nonzero ring depth, budget, and slot stride.
  Status validate() const;
};

/// One packet entering the chip at RX.
struct ChipPacket {
  uint64_t Seq = 0;                ///< arrival order; retirement reorders to it
  std::vector<uint32_t> Words;     ///< packet image, DMA'd to Args[0]
  std::vector<uint32_t> Args;      ///< entry arguments (A0..)
  uint32_t PtrArgMask = 0;         ///< bit i set => Args[i] is an SDRAM pointer
  unsigned PayloadBytes = 0;       ///< goodput accounting when delivered
  uint8_t ClassTag = 0;            ///< generator class (opaque to the chip)
  uint64_t SeedTag = 0;            ///< generator per-packet seed (opaque)
};

/// A packet leaving the chip at TX, in Seq order.
struct RetiredPacket {
  ChipPacket Pkt;
  std::vector<uint32_t> RebasedArgs; ///< slot-rebased args the run used
  sim::RunResult Result;             ///< per-packet outcome (trap => drop)
  unsigned Me = 0;                   ///< processing ME that ran it
  unsigned Ctx = 0;                  ///< hardware context on that ME
  bool Tail = false; ///< ran quarantined on a private image (unrebased)
  uint32_t SlotBase = 0;             ///< SDRAM slot base (0 for tail)
  uint64_t DispatchTime = 0;         ///< RX began the slot DMA
  uint64_t CompleteTime = 0;         ///< context finished executing
  uint64_t RetireTime = 0;           ///< TX retired it in order
  /// Why the recovery machinery killed it (None = normal completion,
  /// including ordinary app traps). Typed drops carry a default-false
  /// Result and never executed to completion.
  DropReason Drop = DropReason::None;
  /// Execution attempts consumed (1 = clean first run; >1 = the
  /// supervisor requeued it after context lockups).
  unsigned Attempts = 1;
};

struct ChannelStats {
  uint64_t Transactions = 0;
  uint64_t StallCycles = 0; ///< cycles requests waited on channel bandwidth
};

struct RingStats {
  unsigned Capacity = 0;
  unsigned HighWater = 0;
  uint64_t Pushes = 0;
  uint64_t Pops = 0;
  uint64_t TraceHash = 0;
};

/// Event-kernel work done by one run() call: host-side counters, like
/// wall time. A resumed run counts only its own events, so they are not
/// in snapshots and novasoak zeroes them under --stable-json.
struct KernelStats {
  static constexpr unsigned NumKinds = 8;
  /// Event kind names, in Handled[] order (JSON keys).
  static const char *kindName(unsigned K);
  uint64_t Handled[NumKinds] = {}; ///< events popped, by kind
  /// MeRun wakeups that found the engine still busy or nothing ready
  /// (a context's resume and the engine's own wake both schedule one).
  uint64_t NoopMeRuns = 0;
  uint64_t Pushes = 0;       ///< events scheduled
  uint64_t PeakPending = 0;  ///< most events queued at once
  uint64_t Retired = 0;      ///< packets this run() retired

  double pushesPerRetired() const {
    return Retired ? double(Pushes) / double(Retired) : 0.0;
  }
};

/// Whole-run accounting. Every field except Kernel is deterministic for
/// a given (programs, base memory, packet stream, params).
struct ChipRunStats {
  uint64_t FinalCycles = 0; ///< chip time of the last event processed
  uint64_t PacketsDispatched = 0;
  uint64_t PacketsRetired = 0;
  uint64_t TailPackets = 0;         ///< quarantined near-limit packets
  std::vector<uint64_t> MeBusyCycles;           ///< per processing ME
  std::vector<std::vector<uint64_t>> CtxPackets; ///< [me][ctx] packets run
  ChannelStats Sram, Sdram, Scratch;
  std::vector<RingStats> InputRings; ///< per processing ME
  RingStats TxRing;
  unsigned ReorderHighWater = 0; ///< TX reorder-buffer peak occupancy
  uint64_t RxDmaTransactions = 0;
  ExecModel Exec = ExecModel::Interp; ///< how contexts executed
  uint64_t Superblocks = 0;    ///< chains collapsed (threaded mode only)
  uint64_t SuperblockOps = 0;  ///< ops in superblock streams (threaded)
  /// Fault-injection + supervisor recovery ledger (all zero when no
  /// schedule was armed).
  RecoveryStats Recovery;
  /// Folds the ring trace hashes and the (seq, time) retire sequence;
  /// equal across runs iff the runs interleaved identically.
  uint64_t TraceHash = 0;
  /// True if the event queue drained with work still in flight (a
  /// scheduler bug; tests assert it stays false).
  bool Deadlock = false;
  /// Host-side event-kernel counters (see KernelStats).
  KernelStats Kernel;

  /// Fraction of chip time ME \p Me spent executing instructions.
  double utilization(unsigned Me) const {
    if (Me >= MeBusyCycles.size() || FinalCycles == 0)
      return 0.0;
    return static_cast<double>(MeBusyCycles[Me]) /
           static_cast<double>(FinalCycles);
  }
  uint64_t totalStallCycles() const {
    return Sram.StallCycles + Sdram.StallCycles + Scratch.StallCycles;
  }
};

/// Checks that \p P is valid and that \p Prog 's spill area can be
/// replicated per hardware context inside the scratch limits, and that
/// the slot geometry fits SDRAM. Call before constructing a Chip.
Status validateChipSetup(const ChipParams &P,
                         const alloc::AllocatedProgram &Prog,
                         const sim::MemLimits &Limits);

/// The chip. Construct with one allocated program per processing ME
/// (typically the same program) and the base memory image (environment
/// tables in SRAM/scratch; SDRAM must hold packet data only — RX scrubs
/// packet slots). run() pulls packets from \p Src until it returns
/// false, streams them through the three-stage pipeline, and hands each
/// retired packet to \p Retire in Seq order.
class Chip {
public:
  /// Fills \p Out with the next packet; returns false at end of stream.
  using Source = std::function<bool(ChipPacket &Out)>;
  using RetireFn = std::function<void(RetiredPacket &&)>;

  Chip(const ChipParams &P,
       std::vector<const alloc::AllocatedProgram *> ProgramPerMe,
       sim::Memory Base);
  ~Chip();
  Chip(const Chip &) = delete;
  Chip &operator=(const Chip &) = delete;

  /// Runs the full stream to retirement. Single-shot: call once.
  ChipRunStats run(const Source &Src, const RetireFn &Retire);

  /// The shared memory image (inspect after run() for the final SDRAM
  /// state; deterministic across same-seed runs).
  sim::Memory &memory();

  /// Called between events whenever the retired-packet count advanced,
  /// with the count and the current chip time. The event loop is
  /// quiescent during the call — every event handler has run to
  /// completion — so saveState() from inside the hook captures a
  /// coherent simulation state. Return true to stop the run right
  /// there (crash-simulation in tests; the process-level kill path
  /// never returns at all).
  using RetireHook = std::function<bool(uint64_t PacketsRetired, uint64_t Time)>;
  void setRetireHook(RetireHook H);

  /// True when the last run() was stopped early by the retire hook —
  /// the returned stats are partial and the run never finalized.
  bool stopped() const;

  /// Checkpoint: serializes the complete mutable simulation state —
  /// pending events sorted by (time, insertion order) and the insertion
  /// counter, every hardware context, rings, channels, in-flight and
  /// reorder buffers, RX agent, supervisor ledger, the live memory
  /// image, and the stats accumulators (not the Kernel counters). Taken
  /// between events (see RetireHook), a snapshot plus the same packet
  /// source replays the remaining event stream bit-identically.
  /// Construction-time state (programs, translations, topology, the
  /// pristine base image) is NOT saved; restore into a Chip freshly
  /// constructed from the identical (params, programs, base) triple.
  void saveState(BinWriter &W) const;

  /// Restores a saveState() image into this not-yet-run chip; run()
  /// then continues the interrupted event stream. The caller is
  /// responsible for re-arming an equivalent Source positioned at the
  /// serialized dispatch cursor. Pending events may come in any order.
  /// A payload that decodes but cannot be run — an event of unknown
  /// kind, with an out-of-range ME or context, before the saved clock
  /// or above the saved insertion counter; an out-of-range ready,
  /// consumer or TX-producer entry; a ring of another geometry —
  /// latches \p R 's failure; the chip
  /// must then be discarded, not run.
  void restoreState(BinReader &R);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace chip
} // namespace nova

#endif // CHIP_CHIP_H
