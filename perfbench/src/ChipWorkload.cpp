//===- ChipWorkload.cpp - Whole-chip NAT soaks ------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// chip-nat-recovery: soak::runChipSoak with nat on 6 MEs x 4 contexts,
/// the threaded execution model, the default adversarial traffic mix, a
/// 1-in-100 oracle, the fault schedule
/// ctx-lockup@5000,chan-brownout@10000~4 and periodic checkpoints into a
/// directory the benchmark owns, and after the timed passes resumes the
/// last pass from a mid-stream snapshot, which must reach the same trace
/// hash and recovery fold.
///
/// The traced run drives chip::Chip::run directly: spans wrap the Source
/// callback (packet generation), the Retire callback (accounting and the
/// sampled oracle) and the checkpoint hook; what is left of the run span
/// is the chip itself (event kernel, channels, RX/TX, supervisor and
/// context execution). It must reproduce the timed pass's trace and
/// image hashes, and an interpreted run of the same stream must
/// reproduce the threaded trace hash.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "checkpoint/Checkpoint.h"
#include "soak/ChipSoak.h"
#include "support/StringUtils.h"

#include <cstdlib>
#include <filesystem>
#include <limits>

using namespace nova;

namespace perfbench {

namespace {

/// A run streams Chunks distinct seeded chunks of ChunkPackets packets,
/// one per pass, cycling through them for the run's duration, and the
/// chunks together give the deterministic metrics an 80k-packet sample.
/// The rate is every pass's packets over every pass's streaming time
/// (in reference seconds, see HostSpeed).
constexpr uint64_t ChunkPackets = 5'000;
constexpr unsigned Chunks = 16;
constexpr uint64_t OracleEvery = 100;
constexpr unsigned SetupRounds = 32;
constexpr unsigned MinPasses = Chunks;
const char *const RecoverySchedule = "ctx-lockup@5000,chan-brownout@10000~4";
/// Every snapshot is fsynced, so its cost depends on the host's shared
/// disk: two per chunk (the middle one is the resume point) keep the
/// checkpoint layer measured without letting disk waits set pkts_per_s.
constexpr uint64_t CheckpointEvery = ChunkPackets / 2;
/// Interpreted/threaded pairs behind fastpath.chip_interp_over_threaded.
constexpr unsigned InterpRepeats = 3;

/// Stream seed of chunk \p K of the workload seed \p Seed.
uint64_t chunkSeed(uint64_t Seed, unsigned K) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (K + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Deterministic outcome of one pass over the stream.
struct PassFacts {
  uint64_t TraceHash = 0, ImageHash = 0, RecoveryFold = 0;
  double GoodputMbps = 0;
  uint64_t P50 = 0, P99 = 0;
  bool operator==(const PassFacts &O) const {
    return TraceHash == O.TraceHash && ImageHash == O.ImageHash &&
           RecoveryFold == O.RecoveryFold && GoodputMbps == O.GoodputMbps &&
           P50 == O.P50 && P99 == O.P99;
  }
};

PassFacts factsOf(const soak::ChipSoakReport &Rep) {
  return {Rep.Chip.TraceHash,      Rep.ImageHash,
          Rep.Chip.Recovery.fold(), Rep.GoodputMbps,
          Rep.Base.Stats.p50Cycles(), Rep.Base.Stats.p99Cycles()};
}

/// Failure accounting shared by the timed and the traced passes.
void checkPass(const soak::SoakReport &Base, const chip::ChipRunStats &CS,
               uint64_t Mismatches, uint64_t Packets, Result &R) {
  R.Attempted += Packets;
  R.fail(Base.Divergences,
         formatf("%llu oracle divergences, %llu chip-vs-standalone "
                 "mismatches (first: %s)",
                 (unsigned long long)Base.Divergences,
                 (unsigned long long)Mismatches, Base.First.What.c_str()));
  if (CS.Deadlock)
    R.fail(1, "chip deadlocked");
  if (CS.PacketsRetired != Packets)
    R.fail(Packets > CS.PacketsRetired ? Packets - CS.PacketsRetired : 1,
           formatf("retired %llu of %llu packets",
                   (unsigned long long)CS.PacketsRetired,
                   (unsigned long long)Packets));
  if (!CS.Recovery.allAccounted())
    R.fail(1, "recovery ledger does not account for every fault");
}

double streamingSeconds(const soak::ChipSoakReport &Rep) {
  return Rep.Base.WallSeconds - Rep.Base.TranslateSeconds;
}

/// Keeps only the snapshot nearest the middle of the stream, so a
/// resume replays a real half of the run.
std::string keepMidSnapshot(const std::string &Dir, uint64_t Packets) {
  namespace fs = std::filesystem;
  std::string Keep;
  uint64_t Best = std::numeric_limits<uint64_t>::max();
  std::vector<fs::path> All;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Dir, EC)) {
    std::string Name = E.path().filename().string();
    if (Name.rfind("ckpt-", 0) != 0)
      continue;
    All.push_back(E.path());
    uint64_t Retired = std::strtoull(Name.c_str() + 5, nullptr, 10);
    uint64_t Dist = Retired > Packets / 2 ? Retired - Packets / 2
                                          : Packets / 2 - Retired;
    if (Dist < Best) {
      Best = Dist;
      Keep = E.path().string();
    }
  }
  for (const fs::path &P : All)
    if (P.string() != Keep)
      fs::remove(P, EC);
  return Keep;
}

/// One pass with spans, driving chip::Chip::run directly. Mirrors
/// soak::runChipSoak's source, retire and checkpoint logic (without
/// shrinking) and returns the same deterministic facts.
struct TracedPass {
  PassFacts Facts;
  chip::ChipRunStats Stats;
  soak::SoakReport Base;
  uint64_t Mismatches = 0;
  uint64_t Snapshots = 0, SnapshotBytes = 0;
  std::string LastSnapshot;
};

TracedPass runTracedPass(const soak::AppHarness &App,
                         const soak::ChipSoakOptions &Opts,
                         const std::string &CkptDir, Tracer &T) {
  TracedPass Out;
  soak::SoakReport &Rep = Out.Base;
  chip::ChipParams CP = Opts.Chip;
  CP.Budget = Opts.Base.Budget;
  soak::SoakOptions SO = Opts.Base;
  SO.Lat = CP.latency();

  std::vector<const alloc::AllocatedProgram *> Progs(
      CP.MP.MeCount, &App.compiled().Alloc.Prog);
  std::unique_ptr<chip::Chip> C;
  {
    Tracer::Scope S(T, "chip.construct");
    C = std::make_unique<chip::Chip>(CP, Progs, App.baseSim());
  }

  uint64_t Next = 0;
  soak::PacketTemplateCache Tmpl;
  soak::SoakPacket P;
  const uint32_t PtrMask = App.pointerArgMask();
  chip::Chip::Source Src = [&](chip::ChipPacket &Pkt) {
    if (Next == SO.Packets)
      return false;
    Tracer::Scope S(T, "soak.gen", Next);
    App.generateInto(Next, SO.Seed, SO.Mix, Tmpl, P);
    ++Rep.ClassCounts[static_cast<unsigned>(P.Class)];
    Pkt = chip::ChipPacket();
    Pkt.Seq = Next++;
    Pkt.Words = std::move(P.Words);
    Pkt.Args = std::move(P.Args);
    Pkt.PtrArgMask = PtrMask;
    Pkt.PayloadBytes = P.PayloadBytes;
    Pkt.ClassTag = static_cast<uint8_t>(P.Class);
    Pkt.SeedTag = P.Seed;
    return true;
  };

  soak::SoakPacket Q;
  chip::Chip::RetireFn Retire = [&](chip::RetiredPacket &&RP) {
    Tracer::Scope S(T, "soak.oracle", RP.Pkt.Seq);
    bool Reject = RP.Result.Ok && App.isAppReject(RP.Result.HaltValues);
    sim::RunResult Acct = RP.Result;
    Acct.Cycles = RP.RetireTime - RP.DispatchTime;
    Rep.Stats.account(Acct, Reject, RP.Pkt.PayloadBytes);
    if (RP.Drop != chip::DropReason::None)
      return;
    if (SO.OracleEvery == 0 || RP.Pkt.Seq % SO.OracleEvery != 0)
      return;
    ++Rep.OracleChecks;
    Q.Class = static_cast<soak::PacketClass>(RP.Pkt.ClassTag);
    Q.Index = RP.Pkt.Seq;
    Q.Seed = RP.Pkt.SeedTag;
    Q.Words = std::move(RP.Pkt.Words);
    Q.Args = RP.RebasedArgs;
    Q.PayloadBytes = RP.Pkt.PayloadBytes;
    soak::PacketOutcome O = soak::runPacket(App, Q, SO, true);
    std::string What;
    if (O.Diverged) {
      What = O.What;
    } else if (O.Alloc.Ok != RP.Result.Ok || O.Alloc.Trap != RP.Result.Trap ||
               (O.Alloc.Ok && O.Alloc.HaltValues != RP.Result.HaltValues)) {
      What = "chip outcome differs from standalone";
      ++Out.Mismatches;
    }
    if (What.empty())
      return;
    ++Rep.Divergences;
    if (!Rep.First.Found) {
      Rep.First.Found = true;
      Rep.First.Index = Q.Index;
      Rep.First.What = What;
    }
  };

  ckpt::CheckpointMeta Meta = soak::checkpointMeta(App, SO);
  Meta.Chip = true;
  Meta.MeCount = CP.MP.MeCount;
  Meta.ContextsPerMe = CP.MP.ContextsPerMe;
  Meta.RingDepth = CP.RingDepth;
  Meta.SlotStride = CP.SlotStride;
  Meta.Faults = CP.Faults;
  const uint64_t Every = SO.Ckpt.Every;
  uint64_t NextCkpt = Every;
  if (Every)
    C->setRetireHook([&](uint64_t Retired, uint64_t) {
      if (Retired < NextCkpt)
        return false;
      Tracer::Scope S(T, "checkpoint.save", Retired);
      BinWriter W;
      soak::saveSoakProgress(W, Rep, Next);
      W.u64(Out.Mismatches);
      C->saveState(W);
      Meta.PacketsRetired = Retired;
      ++Out.Snapshots;
      Out.SnapshotBytes += W.bytes().size();
      if (ckpt::writeCheckpoint(CkptDir, Meta, W.bytes()).ok())
        Out.LastSnapshot =
            CkptDir + formatf("/ckpt-%llu.nova-ckpt", (unsigned long long)Retired);
      NextCkpt = (Retired / Every + 1) * Every;
      return false;
    });

  {
    Tracer::Scope S(T, "chip.run");
    Out.Stats = C->run(Src, Retire);
  }
  double Seconds = double(Out.Stats.FinalCycles) / CP.MP.ClockHz;
  double Goodput =
      Out.Stats.FinalCycles
          ? double(Rep.Stats.DeliveredPayloadBytes) * 8.0 / Seconds / 1e6
          : 0;
  if (Out.Stats.Deadlock)
    ++Rep.Divergences;
  {
    Tracer::Scope S(T, "chip.image_hash");
    Out.Facts = {Out.Stats.TraceHash,      sdramImageHash(C->memory()),
                 Out.Stats.Recovery.fold(), Goodput,
                 Rep.Stats.p50Cycles(),    Rep.Stats.p99Cycles()};
  }
  return Out;
}

/// checkpoint.restore_s: read the snapshot and restore it into a fresh
/// chip (construction itself is not part of the restore).
void measureRestore(const soak::AppHarness &App,
                    const soak::ChipSoakOptions &Opts, const std::string &Path,
                    Tracer &T, Result &R) {
  chip::ChipParams CP = Opts.Chip;
  CP.Budget = Opts.Base.Budget;
  std::vector<const alloc::AllocatedProgram *> Progs(
      CP.MP.MeCount, &App.compiled().Alloc.Prog);
  std::unique_ptr<chip::Chip> C;
  {
    Tracer::Scope S(T, "checkpoint.fresh_chip");
    C = std::make_unique<chip::Chip>(CP, Progs, App.baseSim());
  }
  Tracer::Scope S(T, "checkpoint.restore");
  ++R.Attempted;
  ckpt::LoadedCheckpoint LC;
  if (Status St = ckpt::readCheckpoint(Path, LC); !St.ok()) {
    R.fail(1, "cannot read snapshot " + Path + ": " + St.message());
    return;
  }
  BinReader In = LC.stateReader();
  soak::SoakReport Progress;
  uint64_t Cursor = 0;
  soak::restoreSoakProgress(In, Progress, Cursor);
  In.u64();
  C->restoreState(In);
  if (In.failed() || In.remaining() != 0)
    R.fail(1, "snapshot " + Path + " did not restore cleanly");
}

void chipLayerCounts(const TracedPass &TP, Result &R) {
  const chip::ChipRunStats &S = TP.Stats;
  R.metric("chip.final_cycles", double(S.FinalCycles), "cycles");
  double Util = 0;
  for (unsigned M = 0; M != S.MeBusyCycles.size(); ++M)
    Util += S.utilization(M);
  R.metric("chip.me_util_mean",
           S.MeBusyCycles.empty() ? 0 : Util / S.MeBusyCycles.size(), "share");
  R.metric("chip.sram_txns", double(S.Sram.Transactions), "count");
  R.metric("chip.sdram_txns", double(S.Sdram.Transactions), "count");
  R.metric("chip.scratch_txns", double(S.Scratch.Transactions), "count");
  R.metric("chip.sram_stall_cycles", double(S.Sram.StallCycles), "cycles");
  R.metric("chip.sdram_stall_cycles", double(S.Sdram.StallCycles), "cycles");
  R.metric("chip.scratch_stall_cycles", double(S.Scratch.StallCycles),
           "cycles");
  R.metric("chip.rx_dma_txns", double(S.RxDmaTransactions), "count");
  R.metric("chip.reorder_high_water", double(S.ReorderHighWater), "count");
  R.metric("chip.tail_packets", double(S.TailPackets), "count");
  R.metric("sim.instructions.nat", double(TP.Base.Stats.TotalInstructions),
           "count");
  R.metric("soak.oracle_checks.nat", double(TP.Base.OracleChecks), "count");
  const chip::RecoveryStats &RS = S.Recovery;
  R.metric("chip.sup.lockups_detected", double(RS.LockupsDetected), "count");
  R.metric("chip.sup.packets_recovered", double(RS.PacketsRecovered),
           "count");
  R.metric("chip.sup.backpressure_drops", double(RS.BackpressureDrops),
           "count");
  R.metric("chip.sup.brownout_cycles", double(RS.BrownoutCycles), "cycles");
  if (TP.Snapshots) {
    R.metric("checkpoint.snapshots", double(TP.Snapshots), "count");
    R.metric("checkpoint.bytes_per_snapshot",
             double(TP.SnapshotBytes) / double(TP.Snapshots), "bytes");
  }
}

} // namespace

Result runChipNatRecovery(const RunConfig &C) {
  Result R;
  soak::ChipSoakOptions CO;
  CO.Base.Packets = ChunkPackets;
  CO.Base.Exec = soak::ExecMode::Threaded;
  CO.Base.OracleEvery = OracleEvery;
  CO.Base.Shrink = false;
  CO.Chip.Exec = chip::ExecModel::Threaded;
  std::string Error;
  if (!parseFaultSchedule(RecoverySchedule, CO.Chip.Faults, Error)) {
    R.fail(1, "bad fault schedule: " + Error);
    return R;
  }
  for (const FaultScheduleEntry &E : C.ExtraChipFaults)
    CO.Chip.Faults.push_back(E);
  const std::string CkptDir = C.WorkDir + "/ckpt";
  CO.Base.Ckpt.Every = CheckpointEvery;
  CO.Base.Ckpt.Dir = CkptDir;
  auto OptionsFor = [&](unsigned Chunk) {
    soak::ChipSoakOptions O = CO;
    O.Base.Seed = chunkSeed(C.Seed, Chunk);
    return O;
  };

  SetupSampler Setup({"nat"}, SetupRounds, CO.Chip.latency());
  auto Harnesses = Setup.sample(R);
  if (Harnesses.empty())
    return R;
  const soak::AppHarness &App = *Harnesses.front();
  R.meta("chunks", Chunks);
  R.meta("packets_per_chunk", ChunkPackets);
  R.meta("oracle_every", OracleEvery);
  R.meta("me_count", CO.Chip.MP.MeCount);
  R.meta("contexts_per_me", CO.Chip.MP.ContextsPerMe);
  R.meta("fault_schedule", std::string("\"") + RecoverySchedule + "\"");
  R.meta("checkpoint_every", CheckpointEvery);

  ScopedFaultInjection Armed(C.SimFaults);
  auto Pass = [&](unsigned Chunk) {
    resetDir(CkptDir);
    soak::ChipSoakReport Rep = soak::runChipSoak(App, OptionsFor(Chunk));
    if (!Rep.Setup.ok()) {
      R.fail(ChunkPackets, "chip setup: " + Rep.Setup.message());
      return Rep;
    }
    checkPass(Rep.Base, Rep.Chip, Rep.ChipOutcomeMismatches, ChunkPackets, R);
    return Rep;
  };

  if (!C.Trace) {
    // Pass I streams chunk I mod Chunks; the first round of chunks sets
    // the deterministic facts, every later pass must reproduce them.
    std::vector<double> Rates;
    std::vector<PassFacts> Facts;
    sim::RunStats Merged;
    uint64_t FinalCycles = 0, Retired = 0;
    double Streaming = 0, RefStreaming = 0;
    soak::ChipSoakReport Last;
    int64_t T0 = nowNs();
    for (unsigned I = 0; I < MinPasses || secondsSince(T0) < C.Seconds; ++I) {
      unsigned Chunk = I % Chunks;
      Last = Pass(Chunk);
      Rates.push_back(double(Last.Chip.PacketsRetired) /
                      streamingSeconds(Last));
      Retired += Last.Chip.PacketsRetired;
      Streaming += streamingSeconds(Last);
      RefStreaming += streamingSeconds(Last) * R.Host.factor();
      if (I < Chunks) {
        Facts.push_back(factsOf(Last));
        mergeStats(Merged, Last.Base.Stats);
        FinalCycles += Last.Chip.FinalCycles;
        if (I + 1 == Chunks)
          R.metric("peak_rss_mb", peakRssMb(), "MiB");
      } else if (!(Facts[Chunk] == factsOf(Last))) {
        R.fail(ChunkPackets, "repeated pass of the same stream gave a "
                             "different trace, image or result");
      }
      Setup.maybeSample(secondsSince(T0), C.Seconds, R);
    }
    Setup.finish(R);
    // Goodput over the chunks run back to back: all delivered payload
    // over all chip cycles, drops included.
    double Seconds = double(FinalCycles) / CO.Chip.MP.ClockHz;
    double Goodput =
        Seconds > 0 ? double(Merged.DeliveredPayloadBytes) * 8.0 / Seconds / 1e6
                    : 0;
    packetMetrics(Merged, Goodput, double(Retired) / RefStreaming, R);
    R.meta("raw_pkts_per_s", formatf("%.1f", double(Retired) / Streaming));
    R.meta("passes", Rates.size());
    R.meta("pass_pkts_per_s", jsonList(Rates, "%.1f"));
    std::string List = "[";
    for (size_t I = 0; I != Facts.size(); ++I)
      List += formatf("%s\"%016llx\"", I ? "," : "",
                      (unsigned long long)Facts[I].TraceHash);
    R.meta("trace_hashes", List + "]");
    // Resume the last pass from its mid-stream snapshot.
    unsigned Chunk = (Rates.size() - 1) % Chunks;
    ++R.Attempted;
    std::string Snap = keepMidSnapshot(CkptDir, ChunkPackets);
    soak::ChipSoakOptions Resume = OptionsFor(Chunk);
    Resume.Base.Ckpt.Resume = true;
    soak::ChipSoakReport Rep = Snap.empty() ? soak::ChipSoakReport()
                                            : soak::runChipSoak(App, Resume);
    if (Snap.empty() || !Rep.Base.CkptError.ok() ||
        Rep.Base.ResumedFrom.empty())
      R.fail(1, "no snapshot to resume from: " + Rep.Base.CkptError.message());
    else if (Rep.Chip.TraceHash != Last.Chip.TraceHash ||
             Rep.Chip.Recovery.fold() != Last.Chip.Recovery.fold())
      R.fail(1, "resumed run did not reach the uninterrupted trace hash "
                "and recovery fold");
    resetDir(CkptDir);
    return R;
  }

  // Traced run: pairs of a timed pass and a span-attributed pass of the
  // same chunk. Layer counts come from chunk 0, times are per pass.
  R.Spans = std::make_unique<Tracer>();
  Tracer &T = *R.Spans;
  double PlainWall = 0, TracedWall = 0;
  unsigned Pairs = 0;
  TracedPass First;
  soak::ChipSoakReport FirstPlain;
  int64_t Start = nowNs();
  do {
    unsigned Chunk = Pairs % Chunks;
    int64_t P0 = nowNs();
    soak::ChipSoakReport Plain = Pass(Chunk);
    PlainWall += secondsSince(P0);

    resetDir(CkptDir);
    P0 = nowNs();
    TracedPass TP = runTracedPass(App, OptionsFor(Chunk), CkptDir, T);
    if (!TP.LastSnapshot.empty())
      measureRestore(App, CO, TP.LastSnapshot, T, R);
    TracedWall += secondsSince(P0);
    checkPass(TP.Base, TP.Stats, TP.Mismatches, ChunkPackets, R);
    if (!(TP.Facts == factsOf(Plain)))
      R.fail(ChunkPackets, "traced pass gave a different trace hash, image "
                           "hash or result than the timed pass");
    if (Pairs == 0) {
      First = std::move(TP);
      FirstPlain = std::move(Plain);
    }
    ++Pairs;
  } while (secondsSince(Start) < C.Seconds);

  // Chunk 0 on the interpreter: same schedule, slower host. Alternate
  // interpreted and threaded runs and compare medians, so that one
  // slow-host moment does not decide the ratio.
  {
    soak::ChipSoakOptions Interp = OptionsFor(0);
    Interp.Base.Exec = soak::ExecMode::Interp;
    Interp.Chip.Exec = chip::ExecModel::Interp;
    std::vector<double> InterpS, ThreadedS;
    for (unsigned I = 0; I != InterpRepeats; ++I) {
      resetDir(CkptDir);
      soak::ChipSoakReport IR = soak::runChipSoak(App, Interp);
      checkPass(IR.Base, IR.Chip, IR.ChipOutcomeMismatches, ChunkPackets, R);
      ++R.Attempted;
      if (IR.Chip.TraceHash != FirstPlain.Chip.TraceHash)
        R.fail(1, "interpreted and threaded chips disagree on the trace hash");
      InterpS.push_back(streamingSeconds(IR));
      ThreadedS.push_back(streamingSeconds(Pass(0)));
    }
    R.metric("fastpath.chip_interp_over_threaded",
             median(InterpS) / median(ThreadedS), "ratio");
  }
  resetDir(CkptDir);

  double ChipSelf = T.self("chip.run") / Pairs;
  chipLayerCounts(First, R);
  const chip::ChipRunStats &S = First.Stats;
  uint64_t Txns =
      S.Sram.Transactions + S.Sdram.Transactions + S.Scratch.Transactions;
  R.metric("chip.run_s", ChipSelf, "s");
  R.metric("chip.host_ns_per_mem_ref", Txns ? ChipSelf / double(Txns) * 1e9 : 0,
           "ns");
  uint64_t Instrs = First.Base.Stats.TotalInstructions;
  R.metric("chip.host_ns_per_sim_instr",
           Instrs ? ChipSelf / double(Instrs) * 1e9 : 0, "ns");
  R.metric("fastpath.translate_s.nat", T.total("chip.construct") / Pairs, "s");
  R.metric("soak.gen_s", T.total("soak.gen") / Pairs, "s");
  R.metric("soak.oracle_s.nat", T.total("soak.oracle") / Pairs, "s");
  R.metric("checkpoint.save_s", T.total("checkpoint.save") / Pairs, "s");
  R.metric("checkpoint.restore_s", T.total("checkpoint.restore") / Pairs, "s");
  R.traceSummary(TracedWall, PlainWall, Pairs);
  return R;
}

} // namespace perfbench
