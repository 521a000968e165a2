//===- Segment.cpp - Resumable fast-path execution context ----------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Behaviour contract (pinned by the chip-threaded-vs-chip-interp
// whole-report equality test and the sampled three-way oracle): yields at
// exactly the instructions sim::AllocContext would yield at, with the
// same space and burst cycle count, the same memory data effects already
// applied (including spill-window rebasing), and the same trap kinds,
// messages, and counts on completion. The slow tier is sim::step itself,
// so it matches the interpreter by construction; the fast tier
// reconstructs exact counters from cold data at every yield and exit.
//
//===----------------------------------------------------------------------===//

#include "fastpath/Segment.h"

#include "sim/Step.h"

#include <algorithm>
#include <cassert>

using namespace nova;
using namespace nova::fastpath;
using namespace nova::sim::detail;

void SegmentContext::setProgram(const Translated *Tr) {
  T = Tr;
  Frame.assign(Tr->frameSize(), 0);
  std::copy(Tr->Consts.begin(), Tr->Consts.end(), Frame.begin() + FrameRegs);
  Finished = true;
}

void SegmentContext::reset(const std::vector<uint32_t> &Args) {
  assert(T && "reset() before setProgram()");
  R = sim::RunResult();
  Pos.Err = false;
  InSlow = false;
  FastYield = false;
  Ins = Cyc = 0;
  StartIns = StartCyc = 0;
  Finished = !sim::enterRun(*T->Prog, Args, Frame.data(), R);
  if (!Finished)
    PC = T->Meta[T->Prog->Entry].EnterOp;
}

//===----------------------------------------------------------------------===//
// Fast tier: switch dispatch over the translated stream, yielding at
// memory references. Bursts between yields are short, so a plain switch
// is fine here; the standalone Engine keeps the computed-goto loop.
//===----------------------------------------------------------------------===//

SegmentContext::Yield SegmentContext::resume(sim::Memory &Mem,
                                             const sim::RunOptions &Opts) {
  assert(!Finished && "resume() on a completed context");
  const uint64_t BurstStart = R.Cycles;
  auto finish = [&]() -> Yield {
    Finished = true;
    return {Yield::Kind::Done, MemSpace::Sram, R.Cycles - BurstStart};
  };

  if (FastYield) {
    // Re-derive the bases from the counters the yield materialized plus
    // whatever the caller charged: StartCyc absorbs the charge, so every
    // later exit still reconstructs exact interpreter counts.
    const ColdInfo &C = T->Cold[YieldPC];
    StartIns = R.Instructions - C.InsDelta;
    StartCyc = R.Cycles - C.CycPrefix;
    PC = YieldPC + 1;
    FastYield = false;
  }

  const alloc::AllocatedProgram &P = *T->Prog;
  const FastOp *Ops = T->Ops.data();
  const ColdInfo *ColdA = T->Cold.data();
  const uint16_t *Pool = T->Pool.data();
  const BlockMeta *Meta = T->Meta.data();
  uint32_t *F = Frame.data();
  const uint64_t MaxIns = Opts.MaxInstructions;
  const unsigned BranchCost = Opts.Lat.Branch;
  const bool SlowAll = FaultInjector::armed() || Opts.TrapOnShiftRange;

  while (true) {
    if (InSlow) {
      // The slow tier yields where the interpreter does (its entry check
      // traps an Err latched at the previous memory op) and hands back to
      // the fast tier at the next block edge.
      sim::StepExit X = sim::step(P, F, Pos, R, Mem, Opts, SpillRebase);
      if (X.K == sim::StepExit::Kind::Done)
        return finish();
      if (X.K == sim::StepExit::Kind::Mem)
        return {Yield::Kind::Mem, X.Space, R.Cycles - BurstStart};
      InSlow = false;
      Ins = R.Instructions;
      Cyc = R.Cycles;
      PC = Meta[X.Target].EnterOp;
    }

    const FastOp &O = Ops[PC];
    switch (O.Kind) {
    case FOp::BlockEntry: {
      const BlockMeta &M = Meta[O.X];
      if (SlowAll || M.ForceSlow || Ins + M.MaxPath > MaxIns) {
        R.Instructions = Ins;
        R.Cycles = Cyc;
        InSlow = true;
        Pos.B = O.X;
        Pos.Idx = 0;
        break;
      }
      StartIns = Ins;
      StartCyc = Cyc;
      ++PC;
      break;
    }

    case FOp::SuperEntry:
      if (SlowAll || Ins + O.Y > MaxIns) {
        PC = Meta[O.X].FirstOp;
        break;
      }
      StartIns = Ins;
      StartCyc = Cyc;
      ++PC;
      break;

    case FOp::AluAdd:
    case FOp::AluSub:
    case FOp::AluAnd:
    case FOp::AluOr:
    case FOp::AluXor:
    case FOp::AluShl:
    case FOp::AluShr:
    case FOp::AluNot:
      F[O.D] = cps::evalPrim(
          static_cast<cps::PrimOp>(static_cast<unsigned>(O.Kind) -
                                   static_cast<unsigned>(FOp::AluAdd)),
          F[O.A], F[O.B]);
      ++PC;
      break;

    case FOp::Copy:
      F[O.D] = F[O.A];
      ++PC;
      break;

    // Fused pairs: the leading copy writes before the second op reads,
    // matching the unfused frame state exactly.
    case FOp::FuseCopyAdd:
    case FOp::FuseCopySub:
    case FOp::FuseCopyAnd:
    case FOp::FuseCopyOr:
    case FOp::FuseCopyXor:
    case FOp::FuseCopyShl:
    case FOp::FuseCopyShr:
    case FOp::FuseCopyNot:
      F[O.X] = F[O.Y];
      F[O.D] = cps::evalPrim(
          static_cast<cps::PrimOp>(static_cast<unsigned>(O.Kind) -
                                   static_cast<unsigned>(FOp::FuseCopyAdd)),
          F[O.A], F[O.B]);
      ++PC;
      break;

    case FOp::FuseCopyCopy:
      F[O.X] = F[O.Y];
      F[O.D] = F[O.A];
      ++PC;
      break;

    case FOp::FuseShlAdd:
      F[O.D] = cps::evalPrim(cps::PrimOp::Add, F[O.X],
                             cps::evalPrim(cps::PrimOp::Shl, F[O.A], F[O.B]));
      ++PC;
      break;

    case FOp::Hash:
      F[O.D] = hwHash(F[O.A]);
      ++PC;
      break;

    case FOp::FuseCopyMemRead:
    case FOp::MemRead: {
      if (O.Kind == FOp::FuseCopyMemRead)
        F[O.D] = F[O.B]; // leading copy retires before the memory op
      MemSpace S = static_cast<MemSpace>(O.Aux);
      uint32_t Addr = sim::rebaseSpill(P, SpillRebase, S, F[O.A]);
      const ColdInfo &C = ColdA[PC];
      if (!Mem.inRange(S, Addr, O.N)) {
        R.Instructions = StartIns + C.InsDelta;
        R.Cycles = StartCyc + C.CycPrefix;
        trap(R, rangeTrapFor(S),
             formatf("%s read of %u words at 0x%x (limit 0x%x)",
                     spaceName(S), O.N, Addr, Mem.Limits.words(S)));
        return finish();
      }
      auto &Sp = *Mem.space(S);
      const uint16_t *Dst = Pool + O.X;
      for (uint32_t K = 0; K != O.N; ++K)
        F[Dst[K]] = sim::Memory::load(Sp, Addr + K);
      R.Instructions = StartIns + C.InsDelta;
      R.Cycles = StartCyc + C.CycPrefix;
      YieldPC = PC;
      FastYield = true;
      return {Yield::Kind::Mem, S, R.Cycles - BurstStart};
    }

    case FOp::FuseCopyMemWrite:
    case FOp::MemWrite: {
      if (O.Kind == FOp::FuseCopyMemWrite)
        F[O.D] = F[O.B];
      MemSpace S = static_cast<MemSpace>(O.Aux);
      uint32_t Addr = sim::rebaseSpill(P, SpillRebase, S, F[O.A]);
      const ColdInfo &C = ColdA[PC];
      if (!Mem.inRange(S, Addr, O.N)) {
        R.Instructions = StartIns + C.InsDelta;
        R.Cycles = StartCyc + C.CycPrefix;
        trap(R, rangeTrapFor(S),
             formatf("%s write of %u words at 0x%x (limit 0x%x)",
                     spaceName(S), O.N, Addr, Mem.Limits.words(S)));
        return finish();
      }
      auto &Sp = *Mem.space(S);
      const uint16_t *Src = Pool + O.X;
      for (uint32_t K = 0; K != O.N; ++K)
        Sp[Addr + K] = F[Src[K]];
      R.Instructions = StartIns + C.InsDelta;
      R.Cycles = StartCyc + C.CycPrefix;
      YieldPC = PC;
      FastYield = true;
      return {Yield::Kind::Mem, S, R.Cycles - BurstStart};
    }

    case FOp::BitTestSet: {
      MemSpace S = static_cast<MemSpace>(O.Aux);
      uint32_t Addr = sim::rebaseSpill(P, SpillRebase, S, F[O.A]);
      const ColdInfo &C = ColdA[PC];
      if (!Mem.inRange(S, Addr, 1)) {
        R.Instructions = StartIns + C.InsDelta;
        R.Cycles = StartCyc + C.CycPrefix;
        trap(R, rangeTrapFor(S),
             formatf("%s bit-test-set at 0x%x (limit 0x%x)", spaceName(S),
                     Addr, Mem.Limits.words(S)));
        return finish();
      }
      auto &Sp = *Mem.space(S);
      uint32_t Old = sim::Memory::load(Sp, Addr);
      Sp[Addr] = Old | F[O.B];
      F[O.D] = Old;
      R.Instructions = StartIns + C.InsDelta;
      R.Cycles = StartCyc + C.CycPrefix;
      YieldPC = PC;
      FastYield = true;
      return {Yield::Kind::Mem, S, R.Cycles - BurstStart};
    }

    case FOp::BranchEq:
    case FOp::BranchNe:
    case FOp::BranchLt:
    case FOp::BranchGt:
    case FOp::BranchLe:
    case FOp::BranchGe: {
      const ColdInfo &C = ColdA[PC];
      Ins = StartIns + C.InsDelta;
      Cyc = StartCyc + C.CycPrefix + BranchCost;
      PC = cps::evalCmp(
               static_cast<cps::CmpOp>(static_cast<unsigned>(O.Kind) -
                                       static_cast<unsigned>(FOp::BranchEq)),
               F[O.A], F[O.B])
               ? O.X
               : O.Y;
      break;
    }

    case FOp::GuardEq:
    case FOp::GuardNe:
    case FOp::GuardLt:
    case FOp::GuardGt:
    case FOp::GuardLe:
    case FOp::GuardGe: {
      if (cps::evalCmp(
              static_cast<cps::CmpOp>(static_cast<unsigned>(O.Kind) -
                                      static_cast<unsigned>(FOp::GuardEq)),
              F[O.A], F[O.B]) == (O.Aux != 0)) {
        ++PC;
        break;
      }
      const ColdInfo &C = ColdA[PC];
      Ins = StartIns + C.InsDelta;
      Cyc = StartCyc + C.CycPrefix + BranchCost;
      PC = O.X;
      break;
    }

    case FOp::Jump: {
      const ColdInfo &C = ColdA[PC];
      Ins = StartIns + C.InsDelta;
      Cyc = StartCyc + C.CycPrefix + BranchCost;
      PC = O.X;
      break;
    }

    case FOp::Halt: {
      const ColdInfo &C = ColdA[PC];
      R.Instructions = StartIns + C.InsDelta;
      R.Cycles = StartCyc + C.CycPrefix;
      const uint16_t *Src = Pool + O.X;
      for (uint32_t K = 0; K != O.N; ++K)
        R.HaltValues.push_back(F[Src[K]]);
      R.Ok = true;
      return finish();
    }

    case FOp::TrapStatic: {
      const ColdInfo &C = ColdA[PC];
      R.Instructions = StartIns + C.InsDelta;
      R.Cycles = StartCyc + C.CycPrefix;
      trap(R, static_cast<sim::TrapKind>(O.Aux), T->Messages[O.X]);
      return finish();
    }
    }
  }
}

//===----------------------------------------------------------------------===//
// Checkpoint serialization
//===----------------------------------------------------------------------===//

void SegmentContext::saveState(BinWriter &W) const {
  W.vec32(Frame);
  R.saveState(W);
  W.b(Finished);
  W.b(Pos.Err);
  W.b(InSlow);
  W.b(FastYield);
  W.u32(PC);
  W.u32(YieldPC);
  W.u64(Ins);
  W.u64(Cyc);
  W.u64(StartIns);
  W.u64(StartCyc);
  W.u32(Pos.B);
  W.u32(Pos.Idx);
}

void SegmentContext::restoreState(BinReader &Rd) {
  Frame = Rd.vec32();
  R.restoreState(Rd);
  Finished = Rd.b();
  Pos.Err = Rd.b();
  InSlow = Rd.b();
  FastYield = Rd.b();
  PC = Rd.u32();
  YieldPC = Rd.u32();
  Ins = Rd.u64();
  Cyc = Rd.u64();
  StartIns = Rd.u64();
  StartCyc = Rd.u64();
  Pos.B = Rd.u32();
  Pos.Idx = Rd.u32();
}
