//===- Engine.cpp - Threaded-dispatch execution of translated code --------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Two execution tiers, chosen per block at BlockEntry:
//
//  - the threaded fast tier: computed-goto dispatch over the pre-decoded
//    stream, operands as direct frame indices, no per-instruction
//    counters. Exits (branch/jump/halt/trap) reconstruct the exact
//    interpreter instruction/cycle counts from the per-op cold data
//    relative to the counters saved at block entry;
//
//  - the slow tier: the interpreter's own step function (sim/Step.h) over
//    the same frame, paying the flat memory latency at each Mem exit as
//    sim::runAllocated does. It is taken when the fault injector is
//    armed, strict shift trapping is on, the block has a statically
//    illegal register operand, or the watchdog could fire inside the
//    block, and hands back to the fast tier at the next block edge.
//
// The two tiers interleave freely: control returns to BlockEntry at
// every block boundary with exact counters either way. The dispatch loop
// uses labels-as-values, a GCC/Clang extension; the build needs one of
// those compilers anyway (GNU warning flags, POSIX file and signal APIs).
//
//===----------------------------------------------------------------------===//

#include "fastpath/FastPath.h"

#include "sim/Step.h"

#include <algorithm>

using namespace nova;
using namespace nova::fastpath;
using namespace nova::sim::detail;

Engine::Engine(const Translated &Tr)
    : T(&Tr), Frame(Tr.frameSize(), 0) {
  std::copy(Tr.Consts.begin(), Tr.Consts.end(), Frame.begin() + FrameRegs);
}

namespace {

/// Slow tier: sim::step over the engine's frame from the top of block
/// \p B, paying the flat memory latency at each Mem exit as
/// sim::runAllocated does. Returns the Done or BlockEdge exit. Kept out
/// of line: inlined, its locals cost the dispatch loop a register (GCC
/// then sets up a frame pointer in Engine::run).
[[gnu::noinline]] sim::StepExit
runSlowTier(const alloc::AllocatedProgram &P, uint32_t B, uint32_t *F,
            BatchMemory &Mem, const sim::RunOptions &Opts,
            sim::RunResult &R) {
  sim::StepPos Pos{B, 0, false};
  sim::StepExit X;
  while ((X = sim::step(P, F, Pos, R, Mem, Opts)).K ==
         sim::StepExit::Kind::Mem)
    R.Cycles += Opts.Lat.memAccess(X.Space);
  return X;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fast tier: the threaded dispatch loop.
//===----------------------------------------------------------------------===//

#define VM_CASE(K) L_##K:
#define VM_DISPATCH() goto *JT[static_cast<unsigned>(Ops[PC].Kind)]

sim::RunResult Engine::run(const std::vector<uint32_t> &Args,
                           BatchMemory &Mem, const sim::RunOptions &Opts) {
  sim::RunResult R;
  if (!sim::enterRun(*T->Prog, Args, Frame.data(), R))
    return R;

  const FastOp *Ops = T->Ops.data();
  const ColdInfo *ColdA = T->Cold.data();
  const uint16_t *Pool = T->Pool.data();
  const BlockMeta *Meta = T->Meta.data();
  uint32_t *F = Frame.data();
  const uint64_t MaxIns = Opts.MaxInstructions;
  const unsigned BranchCost = Opts.Lat.Branch;
  const bool SlowAll =
      FaultInjector::armed() || Opts.TrapOnShiftRange;

  // Live counters: exact at every block boundary. Interior fast ops
  // never touch them; exits rebuild them from Start + cold data.
  uint64_t Ins = 0, Cyc = 0;
  uint64_t StartIns = 0, StartCyc = 0;
  uint32_t PC = Meta[T->Prog->Entry].EnterOp;

  static const void *JT[] = {
      &&L_BlockEntry, &&L_AluAdd,    &&L_AluSub,   &&L_AluAnd,
      &&L_AluOr,      &&L_AluXor,    &&L_AluShl,   &&L_AluShr,
      &&L_AluNot,     &&L_Copy,      &&L_Hash,     &&L_MemRead,
      &&L_MemWrite,   &&L_BitTestSet, &&L_BranchEq, &&L_BranchNe,
      &&L_BranchLt,   &&L_BranchGt,  &&L_BranchLe, &&L_BranchGe,
      &&L_Jump,       &&L_Halt,      &&L_TrapStatic,
      &&L_SuperEntry, &&L_GuardEq,   &&L_GuardNe,  &&L_GuardLt,
      &&L_GuardGt,    &&L_GuardLe,   &&L_GuardGe,
      &&L_FuseCopyAdd, &&L_FuseCopySub, &&L_FuseCopyAnd, &&L_FuseCopyOr,
      &&L_FuseCopyXor, &&L_FuseCopyShl, &&L_FuseCopyShr, &&L_FuseCopyNot,
      &&L_FuseCopyCopy, &&L_FuseShlAdd,
      &&L_FuseCopyMemRead, &&L_FuseCopyMemWrite,
  };
  VM_DISPATCH();

  VM_CASE(BlockEntry) {
    const FastOp &O = Ops[PC];
    const BlockMeta &M = Meta[O.X];
    if (SlowAll || M.ForceSlow || Ins + M.MaxPath > MaxIns) {
      R.Instructions = Ins;
      R.Cycles = Cyc;
      sim::StepExit X = runSlowTier(*T->Prog, O.X, F, Mem, Opts, R);
      if (X.K == sim::StepExit::Kind::Done)
        return R;
      Ins = R.Instructions;
      Cyc = R.Cycles;
      PC = Meta[X.Target].EnterOp;
      VM_DISPATCH();
    }
    StartIns = Ins;
    StartCyc = Cyc;
    ++PC;
    VM_DISPATCH();
  }

  VM_CASE(SuperEntry) {
    const FastOp &O = Ops[PC];
    // The chain's whole path must fit in the remaining budget (and the
    // per-instruction escape hatches must be off); otherwise fall back
    // to the head block's own stream, whose BlockEntry gate decides at
    // block granularity.
    if (SlowAll || Ins + O.Y > MaxIns) {
      PC = Meta[O.X].FirstOp;
      VM_DISPATCH();
    }
    StartIns = Ins;
    StartCyc = Cyc;
    ++PC;
    VM_DISPATCH();
  }

#define ALU_CASE(NAME, PRIM)                                              \
  VM_CASE(NAME) {                                                         \
    const FastOp &O = Ops[PC];                                            \
    F[O.D] = cps::evalPrim(cps::PrimOp::PRIM, F[O.A], F[O.B]);            \
    ++PC;                                                                 \
    VM_DISPATCH();                                                        \
  }
  ALU_CASE(AluAdd, Add)
  ALU_CASE(AluSub, Sub)
  ALU_CASE(AluAnd, And)
  ALU_CASE(AluOr, Or)
  ALU_CASE(AluXor, Xor)
  ALU_CASE(AluShl, Shl)
  ALU_CASE(AluShr, Shr)
  ALU_CASE(AluNot, Not)
#undef ALU_CASE

  VM_CASE(Copy) {
    const FastOp &O = Ops[PC];
    F[O.D] = F[O.A];
    ++PC;
    VM_DISPATCH();
  }

// Fused pairs: the leading copy writes before the second op reads, so
// a second op that reads (or overwrites) the copy's destination sees
// exactly the unfused frame state.
#define FUSE_CASE(NAME, PRIM)                                             \
  VM_CASE(FuseCopy##NAME) {                                               \
    const FastOp &O = Ops[PC];                                            \
    F[O.X] = F[O.Y];                                                      \
    F[O.D] = cps::evalPrim(cps::PrimOp::PRIM, F[O.A], F[O.B]);            \
    ++PC;                                                                 \
    VM_DISPATCH();                                                        \
  }
  FUSE_CASE(Add, Add)
  FUSE_CASE(Sub, Sub)
  FUSE_CASE(And, And)
  FUSE_CASE(Or, Or)
  FUSE_CASE(Xor, Xor)
  FUSE_CASE(Shl, Shl)
  FUSE_CASE(Shr, Shr)
  FUSE_CASE(Not, Not)
#undef FUSE_CASE

  VM_CASE(FuseCopyCopy) {
    const FastOp &O = Ops[PC];
    F[O.X] = F[O.Y];
    F[O.D] = F[O.A];
    ++PC;
    VM_DISPATCH();
  }

  VM_CASE(FuseShlAdd) {
    const FastOp &O = Ops[PC];
    F[O.D] = cps::evalPrim(cps::PrimOp::Add, F[O.X],
                           cps::evalPrim(cps::PrimOp::Shl, F[O.A], F[O.B]));
    ++PC;
    VM_DISPATCH();
  }

  VM_CASE(FuseCopyMemRead) {
    const FastOp &O = Ops[PC];
    F[O.D] = F[O.B]; // leading copy retires before the memory op issues
    MemSpace S = static_cast<MemSpace>(O.Aux);
    uint32_t Addr = F[O.A];
    if (!Mem.inRange(S, Addr, O.N)) {
      const ColdInfo &C = ColdA[PC];
      R.Instructions = StartIns + C.InsDelta;
      R.Cycles = StartCyc + C.CycPrefix;
      trap(R, rangeTrapFor(S),
           formatf("%s read of %u words at 0x%x (limit 0x%x)",
                   spaceName(S), O.N, Addr, Mem.limits().words(S)));
      return R;
    }
    const uint16_t *Dst = Pool + O.X;
    for (uint32_t K = 0; K != O.N; ++K)
      F[Dst[K]] = Mem.load(S, Addr + K);
    StartCyc += O.Y;
    ++PC;
    VM_DISPATCH();
  }

  VM_CASE(FuseCopyMemWrite) {
    const FastOp &O = Ops[PC];
    F[O.D] = F[O.B];
    MemSpace S = static_cast<MemSpace>(O.Aux);
    uint32_t Addr = F[O.A];
    if (!Mem.inRange(S, Addr, O.N)) {
      const ColdInfo &C = ColdA[PC];
      R.Instructions = StartIns + C.InsDelta;
      R.Cycles = StartCyc + C.CycPrefix;
      trap(R, rangeTrapFor(S),
           formatf("%s write of %u words at 0x%x (limit 0x%x)",
                   spaceName(S), O.N, Addr, Mem.limits().words(S)));
      return R;
    }
    const uint16_t *Src = Pool + O.X;
    for (uint32_t K = 0; K != O.N; ++K)
      Mem.store(S, Addr + K, F[Src[K]]);
    StartCyc += O.Y;
    ++PC;
    VM_DISPATCH();
  }

  VM_CASE(Hash) {
    const FastOp &O = Ops[PC];
    F[O.D] = hwHash(F[O.A]);
    ++PC;
    VM_DISPATCH();
  }

  VM_CASE(MemRead) {
    const FastOp &O = Ops[PC];
    MemSpace S = static_cast<MemSpace>(O.Aux);
    uint32_t Addr = F[O.A];
    if (!Mem.inRange(S, Addr, O.N)) {
      const ColdInfo &C = ColdA[PC];
      R.Instructions = StartIns + C.InsDelta;
      R.Cycles = StartCyc + C.CycPrefix;
      trap(R, rangeTrapFor(S),
           formatf("%s read of %u words at 0x%x (limit 0x%x)",
                   spaceName(S), O.N, Addr, Mem.limits().words(S)));
      return R;
    }
    const uint16_t *Dst = Pool + O.X;
    for (uint32_t K = 0; K != O.N; ++K)
      F[Dst[K]] = Mem.load(S, Addr + K);
    StartCyc += O.Y; // flat memory cost: charged only once in range
    ++PC;
    VM_DISPATCH();
  }

  VM_CASE(MemWrite) {
    const FastOp &O = Ops[PC];
    MemSpace S = static_cast<MemSpace>(O.Aux);
    uint32_t Addr = F[O.A];
    if (!Mem.inRange(S, Addr, O.N)) {
      const ColdInfo &C = ColdA[PC];
      R.Instructions = StartIns + C.InsDelta;
      R.Cycles = StartCyc + C.CycPrefix;
      trap(R, rangeTrapFor(S),
           formatf("%s write of %u words at 0x%x (limit 0x%x)",
                   spaceName(S), O.N, Addr, Mem.limits().words(S)));
      return R;
    }
    const uint16_t *Src = Pool + O.X;
    for (uint32_t K = 0; K != O.N; ++K)
      Mem.store(S, Addr + K, F[Src[K]]);
    StartCyc += O.Y;
    ++PC;
    VM_DISPATCH();
  }

  VM_CASE(BitTestSet) {
    const FastOp &O = Ops[PC];
    MemSpace S = static_cast<MemSpace>(O.Aux);
    uint32_t Addr = F[O.A];
    if (!Mem.inRange(S, Addr, 1)) {
      const ColdInfo &C = ColdA[PC];
      R.Instructions = StartIns + C.InsDelta;
      R.Cycles = StartCyc + C.CycPrefix;
      trap(R, rangeTrapFor(S),
           formatf("%s bit-test-set at 0x%x (limit 0x%x)", spaceName(S),
                   Addr, Mem.limits().words(S)));
      return R;
    }
    uint32_t Old = Mem.load(S, Addr);
    Mem.store(S, Addr, Old | F[O.B]);
    F[O.D] = Old;
    StartCyc += O.Y;
    ++PC;
    VM_DISPATCH();
  }

#define BRANCH_CASE(NAME, CMP)                                            \
  VM_CASE(NAME) {                                                         \
    const FastOp &O = Ops[PC];                                            \
    const ColdInfo &C = ColdA[PC];                                        \
    Ins = StartIns + C.InsDelta;                                          \
    Cyc = StartCyc + C.CycPrefix + BranchCost;                            \
    PC = cps::evalCmp(cps::CmpOp::CMP, F[O.A], F[O.B]) ? O.X : O.Y;       \
    VM_DISPATCH();                                                        \
  }
  BRANCH_CASE(BranchEq, Eq)
  BRANCH_CASE(BranchNe, Ne)
  BRANCH_CASE(BranchLt, Lt)
  BRANCH_CASE(BranchGt, Gt)
  BRANCH_CASE(BranchLe, Le)
  BRANCH_CASE(BranchGe, Ge)
#undef BRANCH_CASE

// Superblock side-exit: fall through to the next op while execution
// stays on the chain; on exit, reconstruct cumulative counts (cold data
// is relative to the SuperEntry) and leave. Aux is the polarity of the
// comparison that continues the chain.
#define GUARD_CASE(NAME, CMP)                                             \
  VM_CASE(NAME) {                                                         \
    const FastOp &O = Ops[PC];                                            \
    if (cps::evalCmp(cps::CmpOp::CMP, F[O.A], F[O.B]) == (O.Aux != 0)) {  \
      ++PC;                                                               \
      VM_DISPATCH();                                                      \
    }                                                                     \
    const ColdInfo &C = ColdA[PC];                                        \
    Ins = StartIns + C.InsDelta;                                          \
    Cyc = StartCyc + C.CycPrefix + BranchCost;                            \
    PC = O.X;                                                             \
    VM_DISPATCH();                                                        \
  }
  GUARD_CASE(GuardEq, Eq)
  GUARD_CASE(GuardNe, Ne)
  GUARD_CASE(GuardLt, Lt)
  GUARD_CASE(GuardGt, Gt)
  GUARD_CASE(GuardLe, Le)
  GUARD_CASE(GuardGe, Ge)
#undef GUARD_CASE

  VM_CASE(Jump) {
    const FastOp &O = Ops[PC];
    const ColdInfo &C = ColdA[PC];
    Ins = StartIns + C.InsDelta;
    Cyc = StartCyc + C.CycPrefix + BranchCost;
    PC = O.X;
    VM_DISPATCH();
  }

  VM_CASE(Halt) {
    const FastOp &O = Ops[PC];
    const ColdInfo &C = ColdA[PC];
    R.Instructions = StartIns + C.InsDelta;
    R.Cycles = StartCyc + C.CycPrefix;
    const uint16_t *Src = Pool + O.X;
    for (uint32_t K = 0; K != O.N; ++K)
      R.HaltValues.push_back(F[Src[K]]);
    R.Ok = true;
    return R;
  }

  VM_CASE(TrapStatic) {
    const FastOp &O = Ops[PC];
    const ColdInfo &C = ColdA[PC];
    R.Instructions = StartIns + C.InsDelta;
    R.Cycles = StartCyc + C.CycPrefix;
    trap(R, static_cast<sim::TrapKind>(O.Aux), T->Messages[O.X]);
    return R;
  }

}

#undef VM_CASE
#undef VM_DISPATCH
