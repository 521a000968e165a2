//===- fastpath_test.cpp - Translating fast path exactness tests ----------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The fast path's contract is bit-identical RunResults and memory
// effects vs the interpreter (sim::runAllocated). Three layers:
//
//  1. Hand-built hostile programs drive every trap path — illegal
//     registers, fell-off-the-end, bad branch/jump targets, clone
//     pseudos, invalid memory spaces, per-space range traps, watchdog
//     exhaustion, strict shift traps — and both fast-path entry points
//     (SegmentContext::run to completion on BatchMemory, and the
//     resumable SegmentContext::resume) must produce the same trap kind,
//     message string, instruction count, and cycle count as the
//     interpreter.
//
//  2. Differential fuzz: the three benchmark apps (compiled once,
//     cached in-process like soak_test) under 200+ adversarial stream
//     seeds, once as translated and once with every block forced onto
//     the slow tier; every packet must match across halts, all three
//     memory images, trap kind + message, cycles and instructions.
//
//  3. The threaded soak driver: stats bit-identical to the interpreter
//     driver, and a negative control — an injected ALU bit flip must
//     still be caught and shrunk in threaded mode.
//
// Like soak_test, this compiles apps through the ILP allocator, so it
// runs as one ctest entry.
//
//===----------------------------------------------------------------------===//

#include "apps/AppSources.h"
#include "fastpath/FastPath.h"
#include "fastpath/Segment.h"
#include "soak/Soak.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <map>

using namespace nova;
using namespace nova::alloc;
using namespace nova::ixp;

namespace {

//===----------------------------------------------------------------------===//
// Program-building helpers (same idiom as soak_test)
//===----------------------------------------------------------------------===//

PhysLoc loc(Bank B, unsigned Reg) {
  return {B, static_cast<uint16_t>(Reg)};
}

AllocInstr imm(uint32_t V, PhysLoc Dst) {
  AllocInstr I;
  I.Op = MOp::Imm;
  I.Imm = V;
  I.Dsts = {Dst};
  return I;
}

AllocInstr alu(cps::PrimOp Op, AOperand A, AOperand B, PhysLoc Dst) {
  AllocInstr I;
  I.Op = MOp::Alu;
  I.Alu = Op;
  I.Srcs = {A, B};
  I.Dsts = {Dst};
  return I;
}

AllocInstr haltOf(std::vector<AOperand> Srcs) {
  AllocInstr I;
  I.Op = MOp::Halt;
  I.Srcs = std::move(Srcs);
  return I;
}

AllocInstr jump(BlockId T) {
  AllocInstr I;
  I.Op = MOp::Jump;
  I.Target = T;
  return I;
}

AllocInstr branch(cps::CmpOp C, AOperand A, AOperand B, BlockId Then,
                  BlockId Else) {
  AllocInstr I;
  I.Op = MOp::Branch;
  I.Cmp = C;
  I.Srcs = {A, B};
  I.Target = Then;
  I.TargetElse = Else;
  return I;
}

AllocInstr memRead(MemSpace S, AOperand Addr, std::vector<PhysLoc> Dsts) {
  AllocInstr I;
  I.Op = MOp::MemRead;
  I.Space = S;
  I.Srcs = {Addr};
  I.Dsts = std::move(Dsts);
  return I;
}

AllocInstr memWrite(MemSpace S, AOperand Addr, std::vector<AOperand> Vals) {
  AllocInstr I;
  I.Op = MOp::MemWrite;
  I.Space = S;
  I.Srcs = {Addr};
  I.Srcs.insert(I.Srcs.end(), Vals.begin(), Vals.end());
  return I;
}

AllocatedProgram oneBlock(std::vector<AllocInstr> Instrs) {
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back({std::move(Instrs)});
  return P;
}

//===----------------------------------------------------------------------===//
// Bit-identical comparison: interpreter vs both fast-path entry points
//===----------------------------------------------------------------------===//

/// Runs \p T on a fastpath::SegmentContext over \p Mem, paying the flat
/// memory latency at every yield exactly as sim::runAllocated does.
sim::RunResult runSegment(const fastpath::Translated &T,
                          const std::vector<uint32_t> &Args, sim::Memory &Mem,
                          const sim::RunOptions &RO) {
  fastpath::SegmentContext S(&T);
  S.reset(Args);
  while (!S.done()) {
    fastpath::SegmentContext::Yield Y = S.resume(Mem, RO);
    if (Y.K == fastpath::SegmentContext::Yield::Kind::Mem)
      S.charge(RO.Lat.memAccess(Y.Space));
  }
  return S.takeResult();
}

/// True when two runs agree on everything a RunResult observes.
bool sameResult(const sim::RunResult &A, const sim::RunResult &B) {
  return A.Ok == B.Ok && A.Trap == B.Trap &&
         A.Error.message() == B.Error.message() &&
         A.Instructions == B.Instructions && A.Cycles == B.Cycles &&
         A.HaltValues == B.HaltValues;
}

void expectSameResult(const sim::RunResult &Got, const sim::RunResult &Want) {
  EXPECT_EQ(Got.Ok, Want.Ok);
  EXPECT_EQ(Got.Trap, Want.Trap);
  EXPECT_EQ(Got.Error.message(), Want.Error.message());
  EXPECT_EQ(Got.Instructions, Want.Instructions);
  EXPECT_EQ(Got.Cycles, Want.Cycles);
  EXPECT_EQ(Got.HaltValues, Want.HaltValues);
}

/// Runs \p P on the interpreter, SegmentContext::run and
/// SegmentContext::resume from \p Base and asserts full equality of the
/// results and all three memory images. Returns the interpreter's
/// result.
sim::RunResult expectSame(const AllocatedProgram &P,
                          const std::vector<uint32_t> &Args,
                          const sim::Memory &Base, const sim::RunOptions &RO,
                          const char *Label) {
  SCOPED_TRACE(Label);
  sim::Memory MI = Base;
  sim::RunResult IR = sim::runAllocated(P, Args, MI, RO);

  fastpath::Translated T = fastpath::translate(P, RO.Lat);
  {
    SCOPED_TRACE("run");
    fastpath::SegmentContext Seg(&T);
    fastpath::BatchMemory BM(Base);
    expectSameResult(Seg.run(Args, BM, RO), IR);
    EXPECT_EQ(BM.image(MemSpace::Sram), MI.Sram);
    EXPECT_EQ(BM.image(MemSpace::Sdram), MI.Sdram);
    EXPECT_EQ(BM.image(MemSpace::Scratch), MI.Scratch);
  }
  {
    SCOPED_TRACE("segment");
    sim::Memory MS = Base;
    expectSameResult(runSegment(T, Args, MS, RO), IR);
    EXPECT_EQ(MS.Sram, MI.Sram);
    EXPECT_EQ(MS.Sdram, MI.Sdram);
    EXPECT_EQ(MS.Scratch, MI.Scratch);
  }
  return IR;
}

sim::RunResult expectSame(const AllocatedProgram &P,
                          const std::vector<uint32_t> &Args,
                          const char *Label) {
  return expectSame(P, Args, sim::Memory(), sim::RunOptions(), Label);
}

/// Expects a specific trap, with all three executors agreeing on it
/// bit-for-bit.
void expectTrap(const AllocatedProgram &P,
                const std::vector<uint32_t> &Args, sim::TrapKind K,
                const char *MsgPart, const char *Label,
                const sim::RunOptions &RO = {}) {
  sim::RunResult R = expectSame(P, Args, sim::Memory(), RO, Label);
  SCOPED_TRACE(Label);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap, K);
  EXPECT_NE(R.Error.message().find(MsgPart), std::string::npos)
      << R.Error.message();
}

//===----------------------------------------------------------------------===//
// 1. Hand-built hostile programs
//===----------------------------------------------------------------------===//

TEST(FastPath, DeliversSimpleProgram) {
  AllocatedProgram P = oneBlock(
      {imm(7, loc(Bank::A, 1)),
       alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::A, 0)),
           AOperand::reg(loc(Bank::A, 1)), loc(Bank::B, 0)),
       haltOf({AOperand::reg(loc(Bank::B, 0))})});
  expectSame(P, {35}, "add");

  fastpath::Translated T = fastpath::translate(P, sim::LatencyModel());
  fastpath::SegmentContext Seg(&T);
  sim::Memory Base;
  fastpath::BatchMemory BM(Base);
  sim::RunResult R = Seg.run({35}, BM, sim::RunOptions());
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(R.HaltValues.size(), 1u);
  EXPECT_EQ(R.HaltValues[0], 42u);
}

TEST(FastPath, NoEntryBlock) {
  AllocatedProgram P;
  expectTrap(P, {}, sim::TrapKind::MalformedProgram, "no entry block",
             "empty program");
  P.Blocks.push_back({{haltOf({})}});
  P.Entry = 7;
  expectTrap(P, {}, sim::TrapKind::MalformedProgram, "no entry block",
             "entry out of range");
}

TEST(FastPath, TooManyEntryArguments) {
  AllocatedProgram P = oneBlock({haltOf({})});
  std::vector<uint32_t> Args(16, 1);
  expectTrap(P, Args, sim::TrapKind::MalformedProgram,
             "too many entry arguments", "16 args");
}

TEST(FastPath, IllegalRegisterRead) {
  // A9..A15 exist, A-bank index 20 does not: the Err latch trips at the
  // bottom of the iteration, after the ALU cycle charge.
  AllocatedProgram P = oneBlock(
      {alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::A, 20)),
           AOperand::constant(1), loc(Bank::B, 0)),
       haltOf({})});
  expectTrap(P, {}, sim::TrapKind::IllegalRegister,
             "illegal register access in block b0", "bad read");
}

TEST(FastPath, IllegalRegisterWrite) {
  AllocatedProgram P = oneBlock({imm(1, loc(Bank::L, 12)), haltOf({})});
  expectTrap(P, {}, sim::TrapKind::IllegalRegister,
             "illegal register access in block b0", "bad write");
}

TEST(FastPath, IllegalRegisterAtHalt) {
  AllocatedProgram P =
      oneBlock({haltOf({AOperand::reg(loc(Bank::SD, 9))})});
  expectTrap(P, {}, sim::TrapKind::IllegalRegister,
             "illegal register access at halt", "bad halt src");
}

TEST(FastPath, IllegalBitsAtBitTestSetBeyondBound) {
  // The latch set by the bits operand skips BitTestSet's range check, so
  // the out-of-range word is read and written before the trap fires.
  AllocInstr B;
  B.Op = MOp::BitTestSet;
  B.Space = MemSpace::Scratch;
  B.Srcs = {AOperand::constant(sim::MemLimits().ScratchWords + 5),
            AOperand::reg(loc(Bank::L, 12))};
  B.Dsts = {loc(Bank::A, 0)};
  AllocatedProgram P = oneBlock({B, haltOf({})});
  expectTrap(P, {}, sim::TrapKind::IllegalRegister,
             "illegal register access in block b0", "bad bits beyond bound");
}

TEST(FastPath, FellOffTheEnd) {
  AllocatedProgram P = oneBlock({imm(1, loc(Bank::A, 0))});
  expectTrap(P, {}, sim::TrapKind::MalformedProgram,
             "fell off the end of block b0", "no terminator");
  AllocatedProgram Empty = oneBlock({});
  expectTrap(Empty, {}, sim::TrapKind::MalformedProgram,
             "fell off the end of block b0", "empty block");
}

TEST(FastPath, BranchToInvalidTarget) {
  // Target validity is runtime-dependent: only the *chosen* edge traps.
  // Block 1 halts; block 9 does not exist.
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back(
      {{branch(cps::CmpOp::Eq, AOperand::reg(loc(Bank::A, 0)),
               AOperand::constant(1), /*Then=*/9, /*Else=*/1)}});
  P.Blocks.push_back({{haltOf({AOperand::constant(5)})}});
  expectSame(P, {0}, "valid edge chosen");
  expectTrap(P, {1}, sim::TrapKind::MalformedProgram,
             "branch in block b0 targets b9", "invalid edge chosen");
}

TEST(FastPath, JumpToInvalidTarget) {
  AllocatedProgram P = oneBlock({jump(3)});
  expectTrap(P, {}, sim::TrapKind::MalformedProgram,
             "jump in block b0 targets b3", "bad jump");
}

TEST(FastPath, ClonePseudo) {
  AllocInstr C;
  C.Op = MOp::Clone;
  C.Srcs = {AOperand::constant(1)};
  C.Dsts = {loc(Bank::A, 0)};
  AllocatedProgram P = oneBlock({C, haltOf({})});
  expectTrap(P, {}, sim::TrapKind::MalformedProgram,
             "clone pseudo in allocated code", "clone");
}

TEST(FastPath, InvalidMemSpace) {
  AllocInstr M = memRead(static_cast<MemSpace>(9), AOperand::constant(0),
                         {loc(Bank::A, 0)});
  AllocatedProgram P = oneBlock({M, haltOf({})});
  expectTrap(P, {}, sim::TrapKind::IllegalMemSpace,
             "memory space 9 in block b0", "space 9");
}

TEST(FastPath, RangeTrapsPerSpace) {
  sim::MemLimits Lim;
  {
    AllocatedProgram P = oneBlock(
        {memRead(MemSpace::Sram, AOperand::constant(Lim.SramWords),
                 {loc(Bank::A, 0)}),
         haltOf({})});
    expectTrap(P, {}, sim::TrapKind::SramOutOfRange, "sram read of 1",
               "sram read oob");
  }
  {
    AllocatedProgram P = oneBlock(
        {memWrite(MemSpace::Sdram,
                  AOperand::constant(Lim.SdramWords - 1),
                  {AOperand::constant(1), AOperand::constant(2)}),
         haltOf({})});
    expectTrap(P, {}, sim::TrapKind::SdramOutOfRange, "sdram write of 2",
               "sdram write oob");
  }
  {
    AllocInstr B;
    B.Op = MOp::BitTestSet;
    B.Space = MemSpace::Scratch;
    B.Srcs = {AOperand::constant(Lim.ScratchWords),
              AOperand::constant(4)};
    B.Dsts = {loc(Bank::A, 0)};
    AllocatedProgram P = oneBlock({B, haltOf({})});
    expectTrap(P, {}, sim::TrapKind::ScratchOutOfRange,
               "scratch bit-test-set", "scratch bts oob");
  }
}

TEST(FastPath, MemoryEffectsMatch) {
  // Write, bit-test-set, read back: images and halt values must match
  // the interpreter exactly (including the stored-zero entry).
  AllocInstr B;
  B.Op = MOp::BitTestSet;
  B.Space = MemSpace::Scratch;
  B.Srcs = {AOperand::constant(10), AOperand::constant(0xF0)};
  B.Dsts = {loc(Bank::A, 1)};
  AllocatedProgram P = oneBlock(
      {memWrite(MemSpace::Sdram, AOperand::constant(100),
                {AOperand::constant(0xdead), AOperand::constant(0),
                 AOperand::reg(loc(Bank::A, 0))}),
       memWrite(MemSpace::Sram, AOperand::constant(3),
                {AOperand::constant(7)}),
       B,
       memRead(MemSpace::Sdram, AOperand::constant(101),
               {loc(Bank::B, 0), loc(Bank::B, 1)}),
       haltOf({AOperand::reg(loc(Bank::B, 0)),
               AOperand::reg(loc(Bank::B, 1)),
               AOperand::reg(loc(Bank::A, 1))})});
  expectSame(P, {77}, "memory effects");
}

TEST(FastPath, WatchdogExhaustion) {
  // Infinite loop; the watchdog gate must route the final block to the
  // slow path so the trap fires at exactly the budgeted instruction.
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back({{alu(cps::PrimOp::Add,
                           AOperand::reg(loc(Bank::A, 0)),
                           AOperand::constant(1), loc(Bank::A, 0)),
                       jump(0)}});
  sim::RunOptions RO;
  RO.MaxInstructions = 1000;
  expectTrap(P, {0}, sim::TrapKind::Watchdog,
             "instruction budget of 1000 exhausted", "watchdog", RO);
  RO.MaxInstructions = 999; // odd budget: trap mid-block
  expectTrap(P, {0}, sim::TrapKind::Watchdog,
             "instruction budget of 999 exhausted", "watchdog odd", RO);
}

TEST(FastPath, StrictShiftTrap) {
  AllocatedProgram P = oneBlock(
      {imm(40, loc(Bank::A, 1)),
       alu(cps::PrimOp::Shl, AOperand::reg(loc(Bank::A, 0)),
           AOperand::reg(loc(Bank::A, 1)), loc(Bank::B, 0)),
       haltOf({AOperand::reg(loc(Bank::B, 0))})});
  // Architected clamp: count >= 32 yields 0, no trap.
  expectSame(P, {5}, "shift clamp");
  // Strict mode pins everything to the slow path and traps.
  sim::RunOptions RO;
  RO.TrapOnShiftRange = true;
  expectTrap(P, {5}, sim::TrapKind::ShiftRange,
             "shift count 40 in block b0", "strict shift", RO);
}

TEST(FastPath, LargeImmCostsTwoCycles) {
  // Imm <= 0xFFFF or low-half-zero: 1 cycle; otherwise 2. The fold
  // happens at translation time, so cycle counts expose any mismatch.
  for (uint32_t V : {0u, 0xFFFFu, 0x10000u, 0x12345678u, 0xFFFF0000u}) {
    AllocatedProgram P =
        oneBlock({imm(V, loc(Bank::A, 0)),
                  haltOf({AOperand::reg(loc(Bank::A, 0))})});
    expectSame(P, {}, "imm cost");
  }
}

TEST(FastPath, SingleSourceAlu) {
  AllocInstr N;
  N.Op = MOp::Alu;
  N.Alu = cps::PrimOp::Not;
  N.Srcs = {AOperand::reg(loc(Bank::A, 0))};
  N.Dsts = {loc(Bank::B, 0)};
  AllocatedProgram P =
      oneBlock({N, haltOf({AOperand::reg(loc(Bank::B, 0))})});
  expectSame(P, {0x0F0F0F0F}, "not");
}

TEST(FastPath, RunIsReusableAndDeterministic) {
  AllocatedProgram P = oneBlock(
      {memRead(MemSpace::Sdram, AOperand::reg(loc(Bank::A, 0)),
               {loc(Bank::B, 0)}),
       alu(cps::PrimOp::Xor, AOperand::reg(loc(Bank::B, 0)),
           AOperand::constant(0x5a5a5a5a), loc(Bank::B, 1)),
       memWrite(MemSpace::Sdram, AOperand::reg(loc(Bank::A, 0)),
                {AOperand::reg(loc(Bank::B, 1))}),
       haltOf({AOperand::reg(loc(Bank::B, 1))})});
  fastpath::Translated T = fastpath::translate(P, sim::LatencyModel());
  fastpath::SegmentContext Seg(&T);
  sim::Memory Base;
  Base.Sdram[50] = 0x12345678;
  fastpath::BatchMemory BM(Base);
  sim::RunOptions RO;

  sim::RunResult R1 = Seg.run({50}, BM, RO);
  auto Img1 = BM.image(MemSpace::Sdram);
  BM.reset();
  // reset() must land back on the base image exactly.
  EXPECT_EQ(BM.image(MemSpace::Sdram), Base.Sdram);
  sim::RunResult R2 = Seg.run({50}, BM, RO);
  auto Img2 = BM.image(MemSpace::Sdram);
  EXPECT_EQ(R1.HaltValues, R2.HaltValues);
  EXPECT_EQ(R1.Cycles, R2.Cycles);
  EXPECT_EQ(R1.Instructions, R2.Instructions);
  EXPECT_EQ(Img1, Img2);
}

//===----------------------------------------------------------------------===//
// 2. Differential fuzz over the benchmark apps
//===----------------------------------------------------------------------===//

/// Compiles a benchmark app once per process (ILP-bound; shared across
/// the fuzz tests below).
soak::AppHarness &harness(const std::string &Name) {
  static std::map<std::string, std::unique_ptr<soak::AppHarness>> Cache;
  auto It = Cache.find(Name);
  if (It == Cache.end()) {
    driver::CompileOptions Opts = soak::AppHarness::defaultCompileOptions();
    Opts.Alloc.Mip.TimeLimitSeconds = 30.0;
    std::string Error;
    auto H = soak::AppHarness::create(Name, Error, Opts);
    if (!H) {
      ADD_FAILURE() << "compiling " << Name << ": " << Error;
      std::abort();
    }
    It = Cache.emplace(Name, std::move(H)).first;
  }
  return *It->second;
}

/// Streams \p Seeds adversarial stream seeds (x \p PerSeed packets)
/// through four executions — SegmentContext::run on the superblock and
/// on the per-block-only translation, SegmentContext::resume (flat
/// memory charges), interpreter — and requires
/// bit-identical results and memory images from all of them. The
/// per-block translation triangulates: a bug in superblock formation
/// diverges from it, a bug in the shared decoding diverges from the
/// interpreter. \p StrictShifts sets RunOptions::TrapOnShiftRange, which
/// routes every block of both fast-path entry points through the slow tier
/// (the interpreter's step function over the fast path's frame).
void fuzzApp(const std::string &Name, uint64_t Seeds, uint64_t PerSeed,
             bool StrictShifts = false) {
  soak::AppHarness &App = harness(Name);
  const AllocatedProgram &Prog = App.compiled().Alloc.Prog;
  soak::SoakOptions SOpts;
  sim::RunOptions RO;
  RO.Lat = SOpts.Lat;
  RO.MaxInstructions = SOpts.Budget;
  RO.TrapOnShiftRange = StrictShifts;

  fastpath::Translated T = fastpath::translate(Prog, RO.Lat);
  EXPECT_GT(T.Superblocks, 0u) << Name;
  fastpath::SegmentContext Seg(&T);
  fastpath::BatchMemory BM(App.baseSim());

  fastpath::TranslateOptions NoSB;
  NoSB.Superblocks = false;
  fastpath::Translated TP = fastpath::translate(Prog, RO.Lat, NoSB);
  EXPECT_EQ(TP.Superblocks, 0u) << Name;
  fastpath::SegmentContext SegP(&TP);
  fastpath::BatchMemory BMP(App.baseSim());

  unsigned Mismatches = 0;
  auto mismatch = [&](uint64_t Seed, uint64_t I, const char *What,
                      const sim::RunResult &A, const sim::RunResult &B) {
    if (++Mismatches <= 3)
      ADD_FAILURE() << Name << " seed " << Seed << " packet " << I << ": "
                    << What << " (" << A.Error.message() << " vs "
                    << B.Error.message() << ")";
  };
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    for (uint64_t I = 0; I != PerSeed; ++I) {
      soak::SoakPacket P = App.generate(I, Seed, SOpts.Mix);
      const uint32_t Addr = P.Args.empty() ? 0 : P.Args[0];
      BM.reset();
      BM.storePacket(Addr, P.Words);
      sim::RunResult FR = Seg.run(P.Args, BM, RO);
      BMP.reset();
      BMP.storePacket(Addr, P.Words);
      sim::RunResult PR = SegP.run(P.Args, BMP, RO);
      sim::Memory MS = App.baseSim();
      apps::storePacket(MS.Sdram, Addr, P.Words);
      sim::RunResult SR = runSegment(T, P.Args, MS, RO);
      // Interpreter reference.
      sim::Memory MI = App.baseSim();
      apps::storePacket(MI.Sdram, Addr, P.Words);
      sim::RunResult IR = sim::runAllocated(Prog, P.Args, MI, RO);

      if (!sameResult(FR, IR) || !(BM.image(MemSpace::Sram) == MI.Sram) ||
          !(BM.image(MemSpace::Sdram) == MI.Sdram) ||
          !(BM.image(MemSpace::Scratch) == MI.Scratch))
        mismatch(Seed, I, "fastpath diverges from interpreter", FR, IR);
      if (!sameResult(FR, PR) ||
          BM.image(MemSpace::Sram) != BMP.image(MemSpace::Sram) ||
          BM.image(MemSpace::Sdram) != BMP.image(MemSpace::Sdram) ||
          BM.image(MemSpace::Scratch) != BMP.image(MemSpace::Scratch))
        mismatch(Seed, I,
                 "superblock translation diverges from per-block translation",
                 FR, PR);
      if (!sameResult(SR, IR) || !(MS.Sram == MI.Sram) ||
          !(MS.Sdram == MI.Sdram) || !(MS.Scratch == MI.Scratch))
        mismatch(Seed, I, "SegmentContext diverges from interpreter", SR, IR);
    }
  }
  EXPECT_EQ(Mismatches, 0u) << Name;
}

// 210 seeds x 2 packets per app: every packet class, every trap path
// the generators can reach, across three different register-allocated
// programs.
TEST(FastPathFuzz, Aes) { fuzzApp("aes", 210, 2); }
TEST(FastPathFuzz, Kasumi) { fuzzApp("kasumi", 210, 2); }
TEST(FastPathFuzz, Nat) { fuzzApp("nat", 210, 2); }

// The same streams with strict shifts on: every block of both fast-path
// entry points runs on the shared slow tier.
TEST(FastPathFuzz, AesSlowTier) { fuzzApp("aes", 210, 2, true); }
TEST(FastPathFuzz, KasumiSlowTier) { fuzzApp("kasumi", 210, 2, true); }
TEST(FastPathFuzz, NatSlowTier) { fuzzApp("nat", 210, 2, true); }

//===----------------------------------------------------------------------===//
// 3. The threaded soak driver
//===----------------------------------------------------------------------===//

TEST(ThreadedSoak, StatsMatchInterpreter) {
  soak::SoakOptions Opts;
  Opts.Packets = 400;
  Opts.Seed = 11;
  Opts.OracleEvery = 1;
  soak::SoakReport RI = soak::runSoak(harness("nat"), Opts);
  Opts.Exec = soak::ExecMode::Threaded;
  soak::SoakReport RT = soak::runSoak(harness("nat"), Opts);

  EXPECT_EQ(RI.Exec, soak::ExecMode::Interp);
  EXPECT_EQ(RT.Exec, soak::ExecMode::Threaded);
  EXPECT_EQ(RT.Divergences, 0u);
  EXPECT_EQ(RI.Divergences, 0u);
  EXPECT_EQ(RT.Stats.Packets, RI.Stats.Packets);
  EXPECT_EQ(RT.Stats.Delivered, RI.Stats.Delivered);
  EXPECT_EQ(RT.Stats.Rejected, RI.Stats.Rejected);
  EXPECT_EQ(RT.Stats.Drops, RI.Stats.Drops);
  EXPECT_EQ(RT.Stats.TotalCycles, RI.Stats.TotalCycles);
  EXPECT_EQ(RT.Stats.TotalInstructions, RI.Stats.TotalInstructions);
  for (unsigned K = 0; K != sim::NumTrapKinds; ++K)
    EXPECT_EQ(RT.Stats.Traps[K], RI.Stats.Traps[K]) << "trap kind " << K;
  EXPECT_EQ(RT.Stats.p50Cycles(), RI.Stats.p50Cycles());
  EXPECT_EQ(RT.Stats.p99Cycles(), RI.Stats.p99Cycles());
  EXPECT_EQ(RT.OracleChecks, RI.OracleChecks);
}

TEST(ThreadedSoak, ReportJsonHasExecKeys) {
  soak::SoakOptions Opts;
  Opts.Packets = 50;
  Opts.Seed = 2;
  Opts.Exec = soak::ExecMode::Threaded;
  Opts.OracleEvery = 10;
  soak::SoakReport R = soak::runSoak(harness("nat"), Opts);
  std::string J = soak::reportJson(R);
  EXPECT_NE(J.find("\"exec_mode\":\"threaded\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"oracle_rate\":10"), std::string::npos) << J;
  EXPECT_NE(J.find("\"translate_seconds\":"), std::string::npos) << J;
}

TEST(ThreadedSoak, BitFlipNegativeControl) {
  // An injected ALU bit flip pins execution to the (injector-aware)
  // slow path; the 3-way oracle must still catch the corruption in
  // threaded mode and shrink a reproducer.
  FaultSpec Spec;
  Spec.Kind = FaultKind::SimBitFlip;
  Spec.After = 40;
  Spec.Times = 1;
  ScopedFaultInjection Armed({Spec});

  soak::SoakOptions Opts;
  Opts.Packets = 50;
  Opts.Seed = 3;
  Opts.Exec = soak::ExecMode::Threaded;
  Opts.OracleEvery = 1;
  soak::SoakReport R = soak::runSoak(harness("nat"), Opts);
  EXPECT_GT(R.Divergences, 0u);
  ASSERT_TRUE(R.First.Found);
  EXPECT_FALSE(R.First.What.empty());
  EXPECT_LE(R.First.ShrunkWords.size(), R.First.Words.size());
}

} // namespace
