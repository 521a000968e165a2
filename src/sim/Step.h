//===- Step.h - The micro-engine step function ------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one copy of the micro-engine's per-instruction semantics. Both
/// executors run it: sim::AllocContext (the interpreter) for whole runs,
/// and the slow tier of the translating fast path
/// (fastpath::SegmentContext, in both its run-to-completion and its
/// yielding mode) for the blocks its threaded tier cannot run exactly.
/// Trap precedence and messages, the illegal-register latch, per-op
/// cycle charges, spill-window rebasing, and the fault injector's
/// draw order therefore live only here:
///
///  - identical trap kinds and messages, with the instruction and cycle
///    counts at the trap point;
///  - memory data effects happen at issue, before the Mem exit; the base
///    memory latency is the caller's to charge after it. An illegal-
///    register error latched while computing a memory operand traps on
///    the *next* step() — after the caller's charge;
///  - fault injection: sim-bitflip inside the ALU case (flipping the bit
///    the live instruction count selects), mem-jitter drawn right at the
///    MemRead/MemWrite issue (and not for BitTestSet).
///
/// step() runs over a caller-owned register frame (the FrameRegs layout
/// the fast path's translated operands index directly) and is templated
/// on the memory — sim::Memory or fastpath::BatchMemory — so loads and
/// stores are direct calls, never virtual dispatch.
///
//===----------------------------------------------------------------------===//

#ifndef SIM_STEP_H
#define SIM_STEP_H

#include "sim/ExecContext.h"
#include "sim/SimUtil.h"
#include "support/FaultInjection.h"
#include "support/HwHash.h"

namespace nova {
namespace sim {

/// Frame slot of \p L, or -1 when its bank has no register file (M, C)
/// or the index is off the end of the bank.
inline int frameSlot(alloc::PhysLoc L) {
  unsigned Base, Size = 8;
  switch (L.B) {
  case ixp::Bank::A:  Base = 0;  Size = 16; break;
  case ixp::Bank::B:  Base = 16; Size = 16; break;
  case ixp::Bank::L:  Base = 32; break;
  case ixp::Bank::S:  Base = 40; break;
  case ixp::Bank::LD: Base = 48; break;
  case ixp::Bank::SD: Base = 56; break;
  default:            return -1;
  }
  return L.Reg < Size ? static_cast<int>(Base + L.Reg) : -1;
}

/// The scratch word an access to \p Addr really touches: addresses inside
/// the program's spill window move by \p Rebase words, giving each chip
/// context a private spill area (AllocContext::setSpillRebase).
inline uint32_t rebaseSpill(const alloc::AllocatedProgram &P, uint32_t Rebase,
                            MemSpace S, uint32_t Addr) {
  if (Rebase && S == MemSpace::Scratch && Addr >= P.SpillBase &&
      Addr - P.SpillBase < P.NumSpillSlots)
    return Addr + Rebase;
  return Addr;
}

/// Starts a run of \p P: zeroes the FrameRegs register slots of \p Frame
/// and loads \p Args into A0..A(n-1). Returns false, with the trap in
/// \p R, when the entry block is missing or there are too many arguments.
bool enterRun(const alloc::AllocatedProgram &P,
              const std::vector<uint32_t> &Args, uint32_t *Frame,
              RunResult &R);

/// Why step() returned.
struct StepExit {
  enum class Kind : uint8_t {
    Done,     ///< the run completed (halt or trap); the result is final
    Mem,      ///< a memory reference to Space was issued (data applied)
    BlockEdge ///< a branch or jump entered block Target (== StepPos::B)
  };
  Kind K = Kind::Done;
  MemSpace Space = MemSpace::Sram;
  ixp::BlockId Target = 0;
};

/// Executes \p P from \p Pos over the register slots of \p Frame until
/// the next exit, accruing instructions and cycles onto \p R. \p MemT
/// provides inRange/limits/load/store like sim::Memory. \p SpillRebase is
/// the context's spill-window displacement (0 for none).
template <class MemT>
StepExit step(const alloc::AllocatedProgram &P, uint32_t *Frame,
              StepPos &Pos, RunResult &R, MemT &Mem, const RunOptions &Opts,
              uint32_t SpillRebase = 0) {
  using namespace detail;
  using ixp::MOp;
  const StepExit Done{};
  auto illegal = [&]() -> StepExit {
    trap(R, TrapKind::IllegalRegister,
         formatf("illegal register access in block b%u", Pos.B));
    return Done;
  };
  // Latched while issuing the memory operand of the previous step: trap
  // now, after the caller charged the memory latency.
  if (Pos.Err)
    return illegal();

  const LatencyModel &Lat = Opts.Lat;
  const bool Faults = FaultInjector::armed();
  // Banks without a register file and indices off a bank's end set the
  // latch, which traps at the bottom of the instruction (or, for memory
  // ops, at the next step()).
  auto read = [&](const alloc::AOperand &O) -> uint32_t {
    if (O.IsConst)
      return O.Value;
    int S = frameSlot(O.Loc);
    if (S < 0) {
      Pos.Err = true;
      return 0;
    }
    return Frame[S];
  };
  auto write = [&](alloc::PhysLoc L, uint32_t V) {
    int S = frameSlot(L);
    if (S < 0) {
      Pos.Err = true;
      return;
    }
    Frame[S] = V;
  };
  auto jitter = [&] {
    if (Faults &&
        FaultInjector::instance().shouldFire(FaultKind::MemJitter))
      R.Cycles +=
          FaultInjector::instance().drawCycles(FaultKind::MemJitter, 16);
  };

  while (true) {
    if (++R.Instructions > Opts.MaxInstructions) {
      trap(R, TrapKind::Watchdog,
           formatf("instruction budget of %llu exhausted",
                   (unsigned long long)Opts.MaxInstructions));
      return Done;
    }
    const std::vector<alloc::AllocInstr> &Instrs = P.Blocks[Pos.B].Instrs;
    if (Pos.Idx >= Instrs.size()) {
      trap(R, TrapKind::MalformedProgram,
           formatf("fell off the end of block b%u", Pos.B));
      return Done;
    }
    const alloc::AllocInstr &I = Instrs[Pos.Idx++];

    // One validity check covers limits(), memAccess(), and the range
    // trap: an out-of-enum MemSpace can only come from corrupt code.
    if ((I.Op == MOp::MemRead || I.Op == MOp::MemWrite ||
         I.Op == MOp::BitTestSet) &&
        !validSpace(I.Space)) {
      trap(R, TrapKind::IllegalMemSpace,
           formatf("memory space %u in block b%u", (unsigned)I.Space, Pos.B));
      return Done;
    }

    bool Edge = false;
    switch (I.Op) {
    case MOp::Alu: {
      uint32_t A = read(I.Srcs[0]);
      uint32_t Bv = I.Srcs.size() > 1 ? read(I.Srcs[1]) : 0;
      if (Opts.TrapOnShiftRange && cps::shiftOutOfRange(I.Alu, Bv)) {
        trap(R, TrapKind::ShiftRange,
             formatf("shift count %u in block b%u", Bv, Pos.B));
        return Done;
      }
      uint32_t V = cps::evalPrim(I.Alu, A, Bv);
      if (Faults &&
          FaultInjector::instance().shouldFire(FaultKind::SimBitFlip))
        V ^= 1u << (R.Instructions & 31);
      write(I.Dsts[0], V);
      R.Cycles += Lat.Alu;
      break;
    }
    case MOp::Imm:
      write(I.Dsts[0], I.Imm);
      // Large constants need two instructions on the IXP (paper §12).
      R.Cycles += I.Imm <= 0xFFFF || (I.Imm & 0xFFFF) == 0 ? Lat.Imm
                                                           : Lat.Imm + 1;
      break;
    case MOp::Move:
      write(I.Dsts[0], read(I.Srcs[0]));
      R.Cycles += Lat.Alu;
      break;
    case MOp::MemRead: {
      uint32_t Addr = rebaseSpill(P, SpillRebase, I.Space, read(I.Srcs[0]));
      uint32_t Count = static_cast<uint32_t>(I.Dsts.size());
      if (!Pos.Err && !Mem.inRange(I.Space, Addr, Count)) {
        trap(R, rangeTrapFor(I.Space),
             formatf("%s read of %u words at 0x%x (limit 0x%x)",
                     spaceName(I.Space), Count, Addr,
                     Mem.limits().words(I.Space)));
        return Done;
      }
      for (unsigned K = 0; K != Count; ++K)
        write(I.Dsts[K], Mem.load(I.Space, Addr + K));
      jitter();
      return {StepExit::Kind::Mem, I.Space};
    }
    case MOp::MemWrite: {
      uint32_t Addr = rebaseSpill(P, SpillRebase, I.Space, read(I.Srcs[0]));
      uint32_t Count = static_cast<uint32_t>(I.Srcs.size() - 1);
      if (!Pos.Err && !Mem.inRange(I.Space, Addr, Count)) {
        trap(R, rangeTrapFor(I.Space),
             formatf("%s write of %u words at 0x%x (limit 0x%x)",
                     spaceName(I.Space), Count, Addr,
                     Mem.limits().words(I.Space)));
        return Done;
      }
      for (unsigned K = 1; K != I.Srcs.size(); ++K)
        Mem.store(I.Space, Addr + K - 1, read(I.Srcs[K]));
      jitter();
      return {StepExit::Kind::Mem, I.Space};
    }
    case MOp::Hash:
      write(I.Dsts[0], hwHash(read(I.Srcs[0])));
      R.Cycles += Lat.HashOp;
      break;
    case MOp::BitTestSet: {
      uint32_t Addr = rebaseSpill(P, SpillRebase, I.Space, read(I.Srcs[0]));
      uint32_t Bits = read(I.Srcs[1]);
      if (!Pos.Err && !Mem.inRange(I.Space, Addr, 1)) {
        trap(R, rangeTrapFor(I.Space),
             formatf("%s bit-test-set at 0x%x (limit 0x%x)",
                     spaceName(I.Space), Addr, Mem.limits().words(I.Space)));
        return Done;
      }
      uint32_t Old = Mem.load(I.Space, Addr);
      Mem.store(I.Space, Addr, Old | Bits);
      write(I.Dsts[0], Old);
      return {StepExit::Kind::Mem, I.Space};
    }
    case MOp::Clone:
      trap(R, TrapKind::MalformedProgram, "clone pseudo in allocated code");
      return Done;
    case MOp::Branch: {
      ixp::BlockId T = cps::evalCmp(I.Cmp, read(I.Srcs[0]), read(I.Srcs[1]))
                           ? I.Target
                           : I.TargetElse;
      if (T >= P.Blocks.size()) {
        trap(R, TrapKind::MalformedProgram,
             formatf("branch in block b%u targets b%u", Pos.B, T));
        return Done;
      }
      // Re-targeted before the latch check below, so an illegal operand
      // of the branch is reported in the *taken* block.
      Pos.B = T;
      Pos.Idx = 0;
      R.Cycles += Lat.Branch;
      Edge = true;
      break;
    }
    case MOp::Jump:
      if (I.Target >= P.Blocks.size()) {
        trap(R, TrapKind::MalformedProgram,
             formatf("jump in block b%u targets b%u", Pos.B, I.Target));
        return Done;
      }
      Pos.B = I.Target;
      Pos.Idx = 0;
      R.Cycles += Lat.Branch;
      Edge = true;
      break;
    case MOp::Halt:
      for (const alloc::AOperand &S : I.Srcs)
        R.HaltValues.push_back(read(S));
      if (Pos.Err) {
        trap(R, TrapKind::IllegalRegister, "illegal register access at halt");
        return Done;
      }
      R.Ok = true;
      return Done;
    }
    if (Pos.Err)
      return illegal();
    if (Edge)
      return {StepExit::Kind::BlockEdge, MemSpace::Sram, Pos.B};
  }
}

} // namespace sim
} // namespace nova

#endif // SIM_STEP_H
