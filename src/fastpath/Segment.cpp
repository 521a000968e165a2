//===- Segment.cpp - The fast-path dispatch loop --------------------------===//
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
//    counters. Exits (branch/jump/halt/trap) and yields reconstruct the
//    exact interpreter instruction/cycle counts from the per-op cold
//    data relative to the counters saved at block entry;
//
//  - the slow tier: the interpreter's own step function (sim/Step.h)
//    over the same frame. It is taken when the fault injector is armed,
//    strict shift trapping is on, the block has a statically illegal
//    register operand, or the watchdog could fire inside the block, and
//    hands back to the fast tier at the next block edge.
//
// Behaviour contract (pinned by the differential fuzz, the
// chip-threaded-vs-chip-interp whole-report equality test and the
// sampled three-way oracle): run() is bit-identical to sim::runAllocated;
// resume() yields at exactly the instructions sim::AllocContext would
// yield at, with the same space and burst cycle count, the same memory
// data effects already applied (including spill-window rebasing), and
// the same trap kinds, messages, and counts on completion.
//
// The dispatch loop uses labels-as-values, a GCC/Clang extension; the
// build needs one of those compilers anyway (GNU warning flags, POSIX
// file and signal APIs).
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

namespace {

/// Slow tier: sim::step over the context's frame from \p Pos. Without
/// \p Yields it pays the flat memory latency at each Mem exit, as
/// sim::runAllocated does, and returns the Done or BlockEdge exit; with
/// \p Yields it returns every exit. Kept out of line: inlined, its locals
/// cost the dispatch loop a register (GCC then sets up a frame pointer).
template <bool Yields, class MemT>
[[gnu::noinline]] sim::StepExit
slowTier(const alloc::AllocatedProgram &P, uint32_t *F, sim::StepPos &Pos,
         sim::RunResult &R, MemT &Mem, const sim::RunOptions &Opts,
         uint32_t Rebase) {
  sim::StepExit X;
  while ((X = sim::step(P, F, Pos, R, Mem, Opts, Rebase)).K ==
             sim::StepExit::Kind::Mem &&
         !Yields)
    R.Cycles += Opts.Lat.memAccess(X.Space);
  return X;
}

} // namespace

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//

#define VM_CASE(K) L_##K:
#define VM_DISPATCH() goto *JT[static_cast<unsigned>(Ops[PC].Kind)]
// Exact interpreter counts at op PC, from the bases and its cold data.
#define VM_EXIT_COUNTS()                                                  \
  R.Instructions = StartIns + ColdA[PC].InsDelta;                         \
  R.Cycles = StartCyc + ColdA[PC].CycPrefix
// The yielding loop writes its locals back to the context on return.
#define VM_SAVE()                                                         \
  if constexpr (Yields) {                                                 \
    this->PC = PC;                                                        \
    this->Ins = Ins;                                                      \
    this->Cyc = Cyc;                                                      \
    this->StartIns = StartIns;                                            \
    this->StartCyc = StartCyc;                                            \
  }
#define VM_FINISH()                                                       \
  do {                                                                    \
    Finished = true;                                                      \
    VM_SAVE();                                                            \
    return {Yield::Kind::Done, MemSpace::Sram, R.Cycles - BurstStart};    \
  } while (0)
// A memory op issued in range: yield to the caller, or charge the flat
// cost into the block-entry base and continue.
#define VM_ISSUED(S)                                                      \
  if constexpr (Yields) {                                                 \
    VM_EXIT_COUNTS();                                                     \
    YieldPC = PC;                                                         \
    FastYield = true;                                                     \
    VM_SAVE();                                                            \
    return {Yield::Kind::Mem, S, R.Cycles - BurstStart};                  \
  }                                                                       \
  StartCyc += O.Y;                                                        \
  ++PC;                                                                   \
  VM_DISPATCH()

template <bool Yields, class MemT>
SegmentContext::Yield SegmentContext::exec(MemT &Mem,
                                           const sim::RunOptions &Opts) {
  assert(!Finished && "exec() on a completed context");
  const uint64_t BurstStart = Yields ? R.Cycles : 0;
  if (Yields && FastYield) {
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
  // Standalone runs have no spill windows to rebase.
  const uint32_t Rebase = Yields ? SpillRebase : 0;

  // Live counters: exact at every block boundary. Interior fast ops
  // never touch them; exits rebuild them from Start + cold data.
  uint32_t PC = this->PC;
  uint64_t Ins = this->Ins, Cyc = this->Cyc;
  uint64_t StartIns = this->StartIns, StartCyc = this->StartCyc;

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
  if (Yields && InSlow)
    goto SlowTier;
  VM_DISPATCH();

  VM_CASE(BlockEntry) {
    const FastOp &O = Ops[PC];
    const BlockMeta &M = Meta[O.X];
    if (SlowAll || M.ForceSlow || Ins + M.MaxPath > MaxIns) {
      R.Instructions = Ins;
      R.Cycles = Cyc;
      Pos.B = O.X;
      Pos.Idx = 0;
      goto SlowTier;
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

  VM_CASE(Hash) {
    const FastOp &O = Ops[PC];
    F[O.D] = hwHash(F[O.A]);
    ++PC;
    VM_DISPATCH();
  }

// Memory ops, plain and fused: a fused op's leading copy retires before
// the memory op issues. Each form keeps its own dispatch label (sharing
// one body costs the standalone loop measurably on kasumi).
#define MEM_READ_CASE(NAME, FUSED)                                        \
  VM_CASE(NAME) {                                                         \
    const FastOp &O = Ops[PC];                                            \
    if (FUSED)                                                            \
      F[O.D] = F[O.B];                                                    \
    MemSpace S = static_cast<MemSpace>(O.Aux);                            \
    uint32_t Addr = sim::rebaseSpill(P, Rebase, S, F[O.A]);               \
    if (!Mem.inRange(S, Addr, O.N)) {                                     \
      VM_EXIT_COUNTS();                                                   \
      trap(R, rangeTrapFor(S),                                            \
           formatf("%s read of %u words at 0x%x (limit 0x%x)",            \
                   spaceName(S), O.N, Addr, Mem.limits().words(S)));      \
      VM_FINISH();                                                        \
    }                                                                     \
    const uint16_t *Dst = Pool + O.X;                                     \
    for (uint32_t K = 0; K != O.N; ++K)                                   \
      F[Dst[K]] = Mem.load(S, Addr + K);                                  \
    VM_ISSUED(S);                                                         \
  }
  MEM_READ_CASE(MemRead, false)
  MEM_READ_CASE(FuseCopyMemRead, true)
#undef MEM_READ_CASE

#define MEM_WRITE_CASE(NAME, FUSED)                                       \
  VM_CASE(NAME) {                                                         \
    const FastOp &O = Ops[PC];                                            \
    if (FUSED)                                                            \
      F[O.D] = F[O.B];                                                    \
    MemSpace S = static_cast<MemSpace>(O.Aux);                            \
    uint32_t Addr = sim::rebaseSpill(P, Rebase, S, F[O.A]);               \
    if (!Mem.inRange(S, Addr, O.N)) {                                     \
      VM_EXIT_COUNTS();                                                   \
      trap(R, rangeTrapFor(S),                                            \
           formatf("%s write of %u words at 0x%x (limit 0x%x)",           \
                   spaceName(S), O.N, Addr, Mem.limits().words(S)));      \
      VM_FINISH();                                                        \
    }                                                                     \
    const uint16_t *Src = Pool + O.X;                                     \
    for (uint32_t K = 0; K != O.N; ++K)                                   \
      Mem.store(S, Addr + K, F[Src[K]]);                                  \
    VM_ISSUED(S);                                                         \
  }
  MEM_WRITE_CASE(MemWrite, false)
  MEM_WRITE_CASE(FuseCopyMemWrite, true)
#undef MEM_WRITE_CASE

  VM_CASE(BitTestSet) {
    const FastOp &O = Ops[PC];
    MemSpace S = static_cast<MemSpace>(O.Aux);
    uint32_t Addr = sim::rebaseSpill(P, Rebase, S, F[O.A]);
    if (!Mem.inRange(S, Addr, 1)) {
      VM_EXIT_COUNTS();
      trap(R, rangeTrapFor(S),
           formatf("%s bit-test-set at 0x%x (limit 0x%x)", spaceName(S),
                   Addr, Mem.limits().words(S)));
      VM_FINISH();
    }
    uint32_t Old = Mem.load(S, Addr);
    Mem.store(S, Addr, Old | F[O.B]);
    F[O.D] = Old;
    VM_ISSUED(S);
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
    VM_EXIT_COUNTS();
    const uint16_t *Src = Pool + O.X;
    for (uint32_t K = 0; K != O.N; ++K)
      R.HaltValues.push_back(F[Src[K]]);
    R.Ok = true;
    VM_FINISH();
  }

  VM_CASE(TrapStatic) {
    const FastOp &O = Ops[PC];
    VM_EXIT_COUNTS();
    trap(R, static_cast<sim::TrapKind>(O.Aux), T->Messages[O.X]);
    VM_FINISH();
  }

SlowTier: {
  // The slow tier yields where the interpreter does (its entry check
  // traps an Err latched at the previous memory op) and hands back to
  // the fast tier at the next block edge.
  if constexpr (Yields)
    InSlow = true;
  sim::StepExit X = slowTier<Yields>(P, F, Pos, R, Mem, Opts, Rebase);
  if (X.K == sim::StepExit::Kind::Done)
    VM_FINISH();
  if constexpr (Yields) {
    if (X.K == sim::StepExit::Kind::Mem) {
      VM_SAVE();
      return {Yield::Kind::Mem, X.Space, R.Cycles - BurstStart};
    }
    InSlow = false;
  }
  Ins = R.Instructions;
  Cyc = R.Cycles;
  PC = Meta[X.Target].EnterOp;
  VM_DISPATCH();
}
}

#undef VM_CASE
#undef VM_DISPATCH
#undef VM_EXIT_COUNTS
#undef VM_SAVE
#undef VM_FINISH
#undef VM_ISSUED

SegmentContext::Yield SegmentContext::resume(sim::Memory &Mem,
                                             const sim::RunOptions &Opts) {
  return exec<true>(Mem, Opts);
}

sim::RunResult SegmentContext::run(const std::vector<uint32_t> &Args,
                                   BatchMemory &Mem,
                                   const sim::RunOptions &Opts) {
  reset(Args);
  if (!Finished)
    exec<false>(Mem, Opts);
  return takeResult();
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
