//===- Soak.cpp - Soak runner, differential oracle, shrinker --------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "soak/Soak.h"

#include "apps/AppSources.h"
#include "cps/Eval.h"
#include "fastpath/Segment.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <climits>
#include <csignal>
#include <optional>

using namespace nova;
using namespace nova::soak;

const char *soak::execModeName(ExecMode M) {
  return M == ExecMode::Threaded ? "threaded" : "interp";
}

//===----------------------------------------------------------------------===//
// AppHarness
//===----------------------------------------------------------------------===//

driver::CompileOptions AppHarness::defaultCompileOptions() {
  driver::CompileOptions Opts;
  // Soaking wants packets, not optimality proofs: bound the per-app ILP
  // and accept the incumbent rung (the ladder guarantees verified code).
  Opts.Alloc.Mip.TimeLimitSeconds = 60.0;
  Opts.Alloc.FailurePolicy = alloc::OnIlpFailure::Incumbent;
  return Opts;
}

std::unique_ptr<AppHarness>
AppHarness::create(const std::string &Name, std::string &Error,
                   const driver::CompileOptions &Opts) {
  std::unique_ptr<AppHarness> H(new AppHarness());
  H->Name = Name;
  std::string Source;
  if (Name == "aes") {
    H->Id = AppId::Aes;
    Source = apps::aesNovaSource();
  } else if (Name == "kasumi") {
    H->Id = AppId::Kasumi;
    Source = apps::kasumiNovaSource();
  } else if (Name == "nat") {
    H->Id = AppId::Nat;
    Source = apps::natNovaSource();
  } else {
    Error = "unknown application '" + Name + "' (expected aes, kasumi, nat)";
    return nullptr;
  }
  H->App = driver::compileNova(Source, Name + ".nova", Opts);
  if (!H->App->Ok) {
    Error = H->App->ErrorText;
    return nullptr;
  }
  switch (H->Id) {
  case AppId::Aes:
    apps::loadAesEnvironment(H->BaseSim);
    apps::loadAesEnvironment(H->BaseEval);
    break;
  case AppId::Kasumi:
    apps::loadKasumiEnvironment(H->BaseSim);
    apps::loadKasumiEnvironment(H->BaseEval);
    break;
  case AppId::Nat:
    break; // NAT needs no table environment
  }
  return H;
}

bool AppHarness::isAppReject(const std::vector<uint32_t> &Halt) const {
  if (Halt.size() != 1)
    return false;
  // Kasumi's only handler codes are the two top values; its normal result
  // l^r ranges over the whole word, so a high-half test would misfile
  // one delivery in 2^16.
  if (Id == AppId::Kasumi)
    return Halt[0] >= 0xFFFFFFFEu;
  return (Halt[0] >> 16) == 0xFFFFu;
}

//===----------------------------------------------------------------------===//
// Differential oracle
//===----------------------------------------------------------------------===//

namespace {

/// First difference between two final memory images, or true when equal.
/// Templated over the image type: the simulator's sim::WordMap and the
/// CPS evaluator's std::map iterate the same ascending (address, value)
/// sequence.
template <typename ImgA, typename ImgB>
bool sameImage(const ImgA &A, const ImgB &B, const char *AName,
               const char *BName, std::string &Why,
               const char *What = "sdram") {
  auto IA = A.begin(), IB = B.begin();
  while (IA != A.end() && IB != B.end()) {
    if (IA->first != IB->first || IA->second != IB->second) {
      Why = formatf("%s differs: %s has [0x%x]=0x%x, %s has [0x%x]=0x%x",
                    What, AName, IA->first, IA->second, BName, IB->first,
                    IB->second);
      return false;
    }
    ++IA;
    ++IB;
  }
  if (IA != A.end() || IB != B.end()) {
    bool ALeft = IA != A.end();
    uint32_t Addr = ALeft ? IA->first : IB->first;
    uint32_t Val = ALeft ? IA->second : IB->second;
    Why = formatf("%s differs: only %s has [0x%x]=0x%x", What,
                  ALeft ? AName : BName, Addr, Val);
    return false;
  }
  return true;
}

bool sameHalts(const std::vector<uint32_t> &A, const std::vector<uint32_t> &B,
               const char *AName, const char *BName, std::string &Why) {
  if (A.size() != B.size()) {
    Why = formatf("halt arity differs: %s returned %zu values, %s %zu",
                  AName, A.size(), BName, B.size());
    return false;
  }
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I] != B[I]) {
      Why = formatf("halt value %zu differs: %s 0x%x, %s 0x%x", I, AName,
                    A[I], BName, B[I]);
      return false;
    }
  return true;
}

template <typename SdramT>
void storeWords(SdramT &Sdram, uint32_t Addr,
                const std::vector<uint32_t> &Words) {
  apps::storePacket(Sdram, Addr, Words);
}

PacketOutcome runPacketInner(const AppHarness &App, const SoakPacket &P,
                             const SoakOptions &Opts, bool WithOracle,
                             sim::Memory &MA) {
  PacketOutcome O;
  // Per-packet injection windows: a diverging packet reproduces
  // stand-alone, which is what makes shrinking deterministic.
  if (FaultInjector::armed())
    FaultInjector::instance().rearm();

  sim::RunOptions RO;
  RO.Lat = Opts.Lat;
  RO.MaxInstructions = Opts.Budget;

  storeWords(MA.Sdram, P.Args.empty() ? 0 : P.Args[0], P.Words);
  O.Alloc = sim::runAllocated(App.compiled().Alloc.Prog, P.Args, MA, RO);
  O.AppReject = O.Alloc.Ok && App.isAppReject(O.Alloc.HaltValues);
  if (!WithOracle)
    return O;

  // Functional oracle: same machine semantics over virtual temporaries.
  // 4x the instruction budget: no spill reload traffic, but also no
  // reason to starve it into a false watchdog.
  sim::RunOptions RF = RO;
  RF.MaxInstructions = Opts.Budget * 4;
  sim::Memory MF = App.baseSim();
  storeWords(MF.Sdram, P.Args.empty() ? 0 : P.Args[0], P.Words);
  sim::RunResult F =
      sim::runFunctional(App.compiled().Machine, P.Args, MF, RF);

  std::string Why;
  if (!O.Alloc.Ok) {
    // Drop path. Watchdog exhaustion is mode-specific by design (the
    // budgets differ); every other trap must strike functionally too,
    // with the same kind — a bit flip that redirects an address shows
    // up right here.
    if (O.Alloc.Trap == sim::TrapKind::Watchdog)
      return O;
    if (F.Ok) {
      O.Diverged = true;
      O.What = formatf("allocated trapped (%s) but functional delivered",
                       sim::trapKindName(O.Alloc.Trap));
    } else if (F.Trap != O.Alloc.Trap) {
      O.Diverged = true;
      O.What = formatf("trap kind differs: allocated %s, functional %s",
                       sim::trapKindName(O.Alloc.Trap),
                       sim::trapKindName(F.Trap));
    }
    return O;
  }

  if (!F.Ok) {
    if (F.Trap == sim::TrapKind::Watchdog) {
      O.OracleBudgetMiss = true;
      return O;
    }
    O.Diverged = true;
    O.What = formatf("functional trapped (%s) but allocated delivered",
                     sim::trapKindName(F.Trap));
    return O;
  }
  if (!sameHalts(O.Alloc.HaltValues, F.HaltValues, "allocated",
                 "functional", Why) ||
      !sameImage(MA.Sdram, MF.Sdram, "allocated", "functional", Why)) {
    O.Diverged = true;
    O.What = Why;
    return O;
  }

  // CPS reference evaluator: the language's observable semantics. Only
  // meaningful on delivered packets — the evaluator deliberately has no
  // bounds model. Steps per machine instruction are not one-to-one, so
  // it gets a generous multiple.
  uint64_t Steps64 = Opts.Budget * 64;
  unsigned MaxSteps = static_cast<unsigned>(
      std::min<uint64_t>(Steps64, UINT_MAX));
  cps::EvalMemory ME = App.baseEval();
  storeWords(ME.Sdram, P.Args.empty() ? 0 : P.Args[0], P.Words);
  cps::EvalResult E =
      cps::evaluate(App.compiled().Cps, P.Args, ME, MaxSteps);
  if (!E.Ok) {
    if (E.Error.find("step limit") != std::string::npos) {
      O.OracleBudgetMiss = true;
      return O;
    }
    O.Diverged = true;
    O.What = "cps evaluator failed: " + E.Error;
    return O;
  }
  if (!sameHalts(O.Alloc.HaltValues, E.HaltValues, "allocated", "cps",
                 Why) ||
      !sameImage(MA.Sdram, ME.Sdram, "allocated", "cps", Why)) {
    O.Diverged = true;
    O.What = Why;
  }
  return O;
}

} // namespace

PacketOutcome soak::runPacket(const AppHarness &App, const SoakPacket &P,
                              const SoakOptions &Opts, bool WithOracle) {
  sim::Memory MA = App.baseSim();
  PacketOutcome O = runPacketInner(App, P, Opts, WithOracle, MA);
  O.AllocMem = std::move(MA); // map moves: O(1), no image copies
  return O;
}

//===----------------------------------------------------------------------===//
// Fast-path vs interpreter comparison (threaded mode)
//===----------------------------------------------------------------------===//

namespace {

/// Holds the fast path to its contract: bit-identical RunResult and
/// memory effects vs the interpreter's run of the same packet.
bool fastMatches(const sim::RunResult &FR, const fastpath::BatchMemory &BM,
                 const PacketOutcome &O, std::string &Why) {
  const sim::RunResult &IR = O.Alloc;
  if (FR.Ok != IR.Ok) {
    Why = formatf("fastpath %s but interpreter %s",
                  FR.Ok ? "delivered" : "trapped",
                  IR.Ok ? "delivered" : "trapped");
    return false;
  }
  if (FR.Trap != IR.Trap) {
    Why = formatf("trap kind differs: fastpath %s, interpreter %s",
                  sim::trapKindName(FR.Trap), sim::trapKindName(IR.Trap));
    return false;
  }
  if (FR.Error.message() != IR.Error.message()) {
    Why = formatf("trap message differs: fastpath \"%s\", interpreter "
                  "\"%s\"",
                  FR.Error.message().c_str(), IR.Error.message().c_str());
    return false;
  }
  if (FR.Instructions != IR.Instructions) {
    Why = formatf("instruction count differs: fastpath %llu, interpreter "
                  "%llu",
                  (unsigned long long)FR.Instructions,
                  (unsigned long long)IR.Instructions);
    return false;
  }
  if (FR.Cycles != IR.Cycles) {
    Why = formatf("cycle count differs: fastpath %llu, interpreter %llu",
                  (unsigned long long)FR.Cycles,
                  (unsigned long long)IR.Cycles);
    return false;
  }
  if (!sameHalts(FR.HaltValues, IR.HaltValues, "fastpath", "interpreter",
                 Why))
    return false;
  const sim::WordMap *IM[3] = {&O.AllocMem.Sram, &O.AllocMem.Sdram,
                               &O.AllocMem.Scratch};
  static const char *const SpaceNames[3] = {"sram", "sdram", "scratch"};
  for (unsigned S = 0; S != 3; ++S)
    if (!sameImage(BM.image(static_cast<MemSpace>(S)), *IM[S], "fastpath",
                   "interpreter", Why, SpaceNames[S]))
      return false;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shrinker
//===----------------------------------------------------------------------===//

std::vector<uint32_t> soak::shrinkDivergenceWith(
    const SoakPacket &P, unsigned &Runs,
    const std::function<bool(const SoakPacket &)> &Diverges) {
  constexpr unsigned MaxRuns = 600;
  std::vector<uint32_t> Cur = P.Words;
  SoakPacket Q = P; // reused candidate: only Words vary per run
  auto diverges = [&](const std::vector<uint32_t> &W) {
    if (Runs >= MaxRuns)
      return false;
    ++Runs;
    Q.Words = W;
    return Diverges(Q);
  };
  // Delta-debugging pass: drop chunks, halving the chunk size.
  for (size_t Chunk = std::max<size_t>(Cur.size() / 2, 1);;) {
    for (size_t Pos = 0; Pos + Chunk <= Cur.size();) {
      std::vector<uint32_t> Cand(Cur.begin(), Cur.begin() + Pos);
      Cand.insert(Cand.end(), Cur.begin() + Pos + Chunk, Cur.end());
      if (diverges(Cand))
        Cur = std::move(Cand);
      else
        Pos += Chunk;
    }
    if (Chunk == 1)
      break;
    Chunk /= 2;
  }
  // Simplification pass: zero every surviving word that tolerates it.
  for (size_t I = 0; I != Cur.size(); ++I) {
    if (Cur[I] == 0)
      continue;
    std::vector<uint32_t> Cand = Cur;
    Cand[I] = 0;
    if (diverges(Cand))
      Cur = std::move(Cand);
  }
  return Cur;
}

std::vector<uint32_t> soak::shrinkDivergence(const AppHarness &App,
                                             const SoakPacket &P,
                                             const SoakOptions &Opts,
                                             unsigned &Runs) {
  return shrinkDivergenceWith(P, Runs, [&](const SoakPacket &Q) {
    return runPacket(App, Q, Opts, /*WithOracle=*/true).Diverged;
  });
}

//===----------------------------------------------------------------------===//
// Checkpoint progress serialization
//===----------------------------------------------------------------------===//

namespace {

void saveDivergence(BinWriter &W, const Divergence &D) {
  W.b(D.Found);
  W.u64(D.Index);
  W.u64(D.Seed);
  W.u8(static_cast<uint8_t>(D.Class));
  W.str(D.What);
  W.vec32(D.Words);
  W.vec32(D.Args);
  W.vec32(D.ShrunkWords);
  W.u32(D.ShrinkRuns);
}

void restoreDivergence(BinReader &R, Divergence &D) {
  D.Found = R.b();
  D.Index = R.u64();
  D.Seed = R.u64();
  D.Class = static_cast<PacketClass>(R.u8());
  D.What = R.str();
  D.Words = R.vec32();
  D.Args = R.vec32();
  D.ShrunkWords = R.vec32();
  D.ShrinkRuns = R.u32();
}

} // namespace

void soak::saveSoakProgress(BinWriter &W, const SoakReport &R,
                            uint64_t Cursor) {
  W.u64(Cursor);
  for (uint64_t C : R.ClassCounts)
    W.u64(C);
  R.Stats.saveState(W);
  W.u64(R.OracleChecks);
  W.u64(R.OracleBudgetMisses);
  W.u64(R.Divergences);
  saveDivergence(W, R.First);
}

void soak::restoreSoakProgress(BinReader &R, SoakReport &Rep,
                               uint64_t &Cursor) {
  Cursor = R.u64();
  for (uint64_t &C : Rep.ClassCounts)
    C = R.u64();
  Rep.Stats.restoreState(R);
  Rep.OracleChecks = R.u64();
  Rep.OracleBudgetMisses = R.u64();
  Rep.Divergences = R.u64();
  restoreDivergence(R, Rep.First);
}

ckpt::CheckpointMeta soak::checkpointMeta(const AppHarness &App,
                                          const SoakOptions &Opts) {
  ckpt::CheckpointMeta M;
  M.App = App.name();
  M.Seed = Opts.Seed;
  M.Exec = static_cast<uint8_t>(Opts.Exec);
  M.Chip = false;
  M.Packets = Opts.Packets;
  M.OracleEvery = Opts.OracleEvery;
  M.Budget = Opts.Budget;
  M.Mix[0] = Opts.Mix.Valid;
  M.Mix[1] = Opts.Mix.Truncated;
  M.Mix[2] = Opts.Mix.Oversized;
  M.Mix[3] = Opts.Mix.Corrupt;
  M.Mix[4] = Opts.Mix.Fuzz;
  M.CodeHash = ckpt::codeHash(App.compiled().Alloc.Prog);
  return M;
}

void soak::progressHeartbeat(const std::string &App, uint64_t Retired,
                             double WallSeconds, uint64_t LastCheckpoint) {
  double Rate = WallSeconds > 0 ? double(Retired) / WallSeconds : 0;
  std::fprintf(stderr,
               "novasoak: progress: app=%s retired=%llu pkt/s=%.0f "
               "last_checkpoint=%llu\n",
               App.c_str(), (unsigned long long)Retired, Rate,
               (unsigned long long)LastCheckpoint);
  std::fflush(stderr);
}

CkptDriver::CkptDriver(const CheckpointOptions &CK, ckpt::CheckpointMeta Meta,
                       const SoakReport &Rep, const Timer &Clock,
                       uint64_t Start,
                       std::function<void(BinWriter &)> SaveExtra)
    : CK(CK), Meta(std::move(Meta)), Rep(Rep), Clock(Clock),
      SaveExtra(std::move(SaveExtra)) {
  if (CK.Every)
    NextCkpt = (Start / CK.Every + 1) * CK.Every;
  if (CK.ProgressEvery)
    NextProg = (Start / CK.ProgressEvery + 1) * CK.ProgressEvery;
  LastCkpt = Start;
}

bool CkptDriver::onRetired(uint64_t Retired, uint64_t Cursor) {
  if (NextCkpt && Retired >= NextCkpt) {
    BinWriter W;
    saveSoakProgress(W, Rep, Cursor);
    if (SaveExtra)
      SaveExtra(W);
    Meta.PacketsRetired = Retired;
    if (Status S = ckpt::writeCheckpoint(CK.Dir, Meta, W.bytes()); !S.ok())
      std::fprintf(stderr, "novasoak: warning: checkpoint failed: %s\n",
                   S.message().c_str());
    else
      LastCkpt = Retired;
    NextCkpt = (Retired / CK.Every + 1) * CK.Every;
  }
  if (NextProg && Retired >= NextProg) {
    progressHeartbeat(Rep.App, Retired, Clock.seconds(), LastCkpt);
    NextProg = (Retired / CK.ProgressEvery + 1) * CK.ProgressEvery;
  }
  if (CK.KillAfter && Retired >= CK.KillAfter) {
    // The crash harness wants a real mid-run death, not a clean exit:
    // nothing is flushed, no destructor runs, the checkpoint directory
    // is whatever the last atomic rename left behind.
    std::raise(SIGKILL);
  }
  return CK.StopAfter != 0 && Retired >= CK.StopAfter;
}

bool soak::resumeSoak(const CheckpointOptions &CK,
                      const ckpt::CheckpointMeta &Meta, SoakReport &Rep,
                      uint64_t &Cursor, uint64_t &Retired,
                      const std::function<void(BinReader &)> &RestoreExtra) {
  ckpt::LoadedCheckpoint LC;
  std::vector<std::string> Notes;
  Status S = ckpt::findLatestValid(CK.Dir, Meta, LC, &Notes);
  for (const std::string &N : Notes)
    std::fprintf(stderr, "novasoak: warning: skipping checkpoint: %s\n",
                 N.c_str());
  if (!S.ok()) {
    Rep.CkptError = S;
    return false;
  }
  BinReader R = LC.stateReader();
  restoreSoakProgress(R, Rep, Cursor);
  if (RestoreExtra)
    RestoreExtra(R);
  if (R.failed() || R.remaining() != 0) {
    Rep.CkptError = Status::error(
        StatusCode::CheckpointCorrupt, Phase::Driver,
        "checkpoint " + LC.Path + ": state section malformed");
    return false;
  }
  Rep.ResumedFrom = LC.Path;
  Retired = LC.Meta.PacketsRetired;
  std::fprintf(stderr, "novasoak: resumed %s from %s (%llu retired)\n",
               Rep.App.c_str(), LC.Path.c_str(),
               (unsigned long long)Retired);
  return true;
}

//===----------------------------------------------------------------------===//
// Stream runner
//===----------------------------------------------------------------------===//

namespace {

/// The threaded executor: the program translated once, one fast-path
/// context and one journaled memory reused across packets.
struct FastRunner {
  fastpath::Translated T;
  fastpath::SegmentContext Seg;
  fastpath::BatchMemory BM;
  sim::RunOptions RO;

  FastRunner(const AppHarness &App, const SoakOptions &Opts)
      : T(fastpath::translate(App.compiled().Alloc.Prog, Opts.Lat)), Seg(&T),
        BM(App.baseSim()) {
    RO.Lat = Opts.Lat;
    RO.MaxInstructions = Opts.Budget;
  }
  FastRunner(const FastRunner &) = delete; // Seg points into T

  /// Runs \p P from the base image, re-arming the injector first like
  /// runPacket, so a sampled interpreter re-run replays the exact draw
  /// sequence the fast path saw.
  sim::RunResult run(const SoakPacket &P) {
    if (FaultInjector::armed())
      FaultInjector::instance().rearm();
    BM.reset();
    BM.storePacket(P.Args.empty() ? 0 : P.Args[0], P.Words);
    return Seg.run(P.Args, BM, RO);
  }
};

} // namespace

SoakReport soak::runSoak(const AppHarness &App, const SoakOptions &Opts) {
  SoakReport Rep;
  Rep.App = App.name();
  Rep.Seed = Opts.Seed;
  Rep.Exec = Opts.Exec;
  Rep.OracleEvery = Opts.OracleEvery;
  Timer Clock;

  const CheckpointOptions &CK = Opts.Ckpt;
  ckpt::CheckpointMeta Meta = checkpointMeta(App, Opts);
  uint64_t Start = 0, Retired = 0;
  if (CK.Resume && !resumeSoak(CK, Meta, Rep, Start, Retired))
    return Rep;
  CkptDriver CD(CK, Meta, Rep, Clock, Start);

  // Threaded mode: translate once, run every packet on the fast path,
  // and sample the interpreter + functional + CPS oracles every
  // OracleEvery'th packet. The sampled interpreter run doubles as the
  // bit-exactness check on the fast path itself (fastMatches).
  std::optional<FastRunner> Fast;
  if (Opts.Exec == ExecMode::Threaded) {
    Timer TranslateClock;
    Fast.emplace(App, Opts);
    Rep.TranslateSeconds = TranslateClock.seconds();
  }

  // The only per-mode step: execute packet P, returning the result to
  // account and, when WithOracle, the oracle's verdict.
  auto execute = [&](const SoakPacket &P, bool WithOracle) {
    if (!Fast)
      return runPacket(App, P, Opts, WithOracle);
    sim::RunResult FR = Fast->run(P);
    PacketOutcome O;
    if (WithOracle) {
      O = runPacket(App, P, Opts, /*WithOracle=*/true);
      std::string Why;
      if (!O.Diverged && !fastMatches(FR, Fast->BM, O, Why)) {
        O.Diverged = true;
        O.What = "fastpath vs interpreter: " + Why;
      }
    }
    O.AppReject = FR.Ok && App.isAppReject(FR.HaltValues);
    O.Alloc = std::move(FR);
    return O;
  };
  // Shrink predicate: re-runs a candidate packet on the same execution
  // (threaded: both the fast path and the interpreter) with the oracle.
  auto diverges = [&](const SoakPacket &Q) {
    return execute(Q, /*WithOracle=*/true).Diverged;
  };

  // Resuming mid-stream is safe at any index: packet I is a pure
  // function of (seed, I) and the oracle decision uses the absolute
  // index.
  SoakPacket P;
  PacketTemplateCache Tmpl;
  for (uint64_t I = Start; I < Opts.Packets; ++I) {
    App.generateInto(I, Opts.Seed, Opts.Mix, Tmpl, P);
    ++Rep.ClassCounts[static_cast<unsigned>(P.Class)];
    bool WithOracle = Opts.OracleEvery != 0 && I % Opts.OracleEvery == 0;
    PacketOutcome O = execute(P, WithOracle);
    Rep.Stats.account(O.Alloc, O.AppReject, P.PayloadBytes);
    if (WithOracle)
      ++Rep.OracleChecks;
    if (O.OracleBudgetMiss)
      ++Rep.OracleBudgetMisses;
    if (O.Diverged) {
      ++Rep.Divergences;
      if (!Rep.First.Found) {
        Rep.First.Found = true;
        Rep.First.Index = P.Index;
        Rep.First.Seed = P.Seed;
        Rep.First.Class = P.Class;
        Rep.First.What = O.What;
        Rep.First.Words = P.Words;
        Rep.First.Args = P.Args;
        Rep.First.ShrunkWords =
            Opts.Shrink
                ? shrinkDivergenceWith(P, Rep.First.ShrinkRuns, diverges)
                : P.Words;
      }
      if (Opts.FailFast)
        break;
    }
    // Snapshot/heartbeat only after the packet's accounting (and any
    // oracle bookkeeping) has fully landed in Rep.
    if (CD.onRetired(I + 1, I + 1)) {
      Rep.Stopped = true;
      break;
    }
  }
  Rep.WallSeconds = Clock.seconds();
  return Rep;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

std::string wordsJson(const std::vector<uint32_t> &W) {
  std::string Out = "[";
  for (size_t I = 0; I != W.size(); ++I)
    Out += formatf("%s%u", I ? "," : "", W[I]);
  return Out + "]";
}

} // namespace

std::string soak::reportJson(const SoakReport &R) {
  const sim::RunStats &S = R.Stats;
  std::string J = "{\"schema_version\":2,";
  J += formatf("\"app\":\"%s\",\"seed\":%llu,\"packets\":%llu,",
               R.App.c_str(), (unsigned long long)R.Seed,
               (unsigned long long)S.Packets);
  J += "\"classes\":{";
  for (unsigned C = 0; C != NumPacketClasses; ++C)
    J += formatf("%s\"%s\":%llu", C ? "," : "",
                 packetClassName(static_cast<PacketClass>(C)),
                 (unsigned long long)R.ClassCounts[C]);
  J += "},";
  J += formatf("\"delivered\":%llu,\"rejected\":%llu,\"drops\":%llu,",
               (unsigned long long)S.Delivered,
               (unsigned long long)S.Rejected, (unsigned long long)S.Drops);
  J += "\"traps\":{";
  bool FirstTrap = true;
  for (unsigned K = 1; K != sim::NumTrapKinds; ++K) {
    J += formatf("%s\"%s\":%llu", FirstTrap ? "" : ",",
                 sim::trapKindName(static_cast<sim::TrapKind>(K)),
                 (unsigned long long)S.Traps[K]);
    FirstTrap = false;
  }
  J += "},";
  J += formatf("\"p50_cycles\":%llu,\"p99_cycles\":%llu,",
               (unsigned long long)S.p50Cycles(),
               (unsigned long long)S.p99Cycles());
  J += formatf("\"total_cycles\":%llu,\"total_instructions\":%llu,",
               (unsigned long long)S.TotalCycles,
               (unsigned long long)S.TotalInstructions);
  J += formatf("\"delivered_mbps\":%.3f,", S.deliveredMbps());
  J += formatf("\"exec_mode\":\"%s\",\"oracle_rate\":%llu,"
               "\"translate_seconds\":%.6f,",
               execModeName(R.Exec), (unsigned long long)R.OracleEvery,
               R.TranslateSeconds);
  J += formatf("\"oracle_checks\":%llu,\"oracle_budget_misses\":%llu,"
               "\"divergences\":%llu,",
               (unsigned long long)R.OracleChecks,
               (unsigned long long)R.OracleBudgetMisses,
               (unsigned long long)R.Divergences);
  J += formatf("\"wall_seconds\":%.3f,\"packets_per_sec\":%.1f,",
               R.WallSeconds, R.packetsPerSec());
  if (R.First.Found) {
    J += formatf("\"first_divergence\":{\"index\":%llu,\"seed\":%llu,"
                 "\"class\":\"%s\",\"what\":\"%s\",",
                 (unsigned long long)R.First.Index,
                 (unsigned long long)R.First.Seed,
                 packetClassName(R.First.Class),
                 jsonEscape(R.First.What).c_str());
    J += "\"args\":" + wordsJson(R.First.Args) + ",";
    J += "\"words\":" + wordsJson(R.First.Words) + ",";
    J += "\"shrunk_words\":" + wordsJson(R.First.ShrunkWords) + ",";
    J += formatf("\"shrink_runs\":%u}", R.First.ShrinkRuns);
  } else {
    J += "\"first_divergence\":null";
  }
  J += "}";
  return J;
}

void soak::printReport(const SoakReport &R, std::FILE *Out) {
  const sim::RunStats &S = R.Stats;
  std::fprintf(Out, "== %s: %llu packets, seed %llu ==\n", R.App.c_str(),
               (unsigned long long)S.Packets, (unsigned long long)R.Seed);
  std::fprintf(Out, "  exec      : %s  oracle-rate=%llu",
               execModeName(R.Exec), (unsigned long long)R.OracleEvery);
  if (R.Exec == ExecMode::Threaded)
    std::fprintf(Out, "  translate=%.3fs", R.TranslateSeconds);
  std::fprintf(Out, "\n");
  std::fprintf(Out, "  classes   :");
  for (unsigned C = 0; C != NumPacketClasses; ++C)
    std::fprintf(Out, " %s=%llu",
                 packetClassName(static_cast<PacketClass>(C)),
                 (unsigned long long)R.ClassCounts[C]);
  std::fprintf(Out, "\n");
  std::fprintf(Out,
               "  outcome   : delivered=%llu rejected=%llu drops=%llu\n",
               (unsigned long long)S.Delivered,
               (unsigned long long)S.Rejected,
               (unsigned long long)S.Drops);
  std::fprintf(Out, "  traps     :");
  for (unsigned K = 1; K != sim::NumTrapKinds; ++K)
    if (S.Traps[K])
      std::fprintf(Out, " %s=%llu",
                   sim::trapKindName(static_cast<sim::TrapKind>(K)),
                   (unsigned long long)S.Traps[K]);
  std::fprintf(Out, "\n");
  std::fprintf(Out,
               "  cycles    : p50=%llu p99=%llu  goodput=%.1f Mbps\n",
               (unsigned long long)S.p50Cycles(),
               (unsigned long long)S.p99Cycles(), S.deliveredMbps());
  std::fprintf(Out,
               "  oracle    : checks=%llu budget-misses=%llu "
               "divergences=%llu\n",
               (unsigned long long)R.OracleChecks,
               (unsigned long long)R.OracleBudgetMisses,
               (unsigned long long)R.Divergences);
  std::fprintf(Out, "  rate      : %.0f packets/s (%.2fs wall)\n",
               R.packetsPerSec(), R.WallSeconds);
  if (R.First.Found) {
    std::fprintf(Out,
                 "  DIVERGENCE at packet %llu (seed %llu, class %s):\n"
                 "    %s\n    shrunk to %zu word(s) in %u runs:",
                 (unsigned long long)R.First.Index,
                 (unsigned long long)R.First.Seed,
                 packetClassName(R.First.Class), R.First.What.c_str(),
                 R.First.ShrunkWords.size(), R.First.ShrinkRuns);
    for (uint32_t W : R.First.ShrunkWords)
      std::fprintf(Out, " 0x%x", W);
    std::fprintf(Out, "\n");
  }
}
