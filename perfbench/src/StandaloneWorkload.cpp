//===- StandaloneWorkload.cpp - Single-ME soak streams ---------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// standalone-valid: valid-only traffic through single-ME soaks of all
/// three apps on the fast path (soak::runSoak, ExecMode::Threaded) with
/// a 1-in-100 differential oracle. The chip kernel is never entered.
///
/// The traced run attributes each app's stream to packet generation,
/// translation, fast-path execution (a span around runSoak with the
/// oracle off, minus generation and translation) and the oracle (spans
/// around soak::runPacket on the sampled packets).
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "fastpath/FastPath.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace nova;

namespace perfbench {

namespace {

/// Per-app stream lengths, sized so that each app takes a comparable
/// share of a pass (about 0.12 s each on a 4-core x86-64 host).
const std::vector<std::string> AppNames = {"aes", "kasumi", "nat"};
const std::vector<uint64_t> StandalonePackets = {3'000, 20'000, 50'000};
constexpr uint64_t OracleEvery = 100;
constexpr unsigned SetupRounds = 4;
constexpr unsigned MinPasses = 5;

soak::SoakOptions standaloneOptions(uint64_t Seed) {
  soak::SoakOptions O;
  O.Seed = Seed;
  O.Mix = soak::ClassMix{100, 0, 0, 0, 0};
  O.Exec = soak::ExecMode::Threaded;
  O.OracleEvery = OracleEvery;
  // A failing run only needs to be counted, not minimized.
  O.Shrink = false;
  return O;
}

struct PassResult {
  sim::RunStats Stats;
  uint64_t Packets = 0;
  double Wall = 0;
};

PassResult runPass(const StreamSet &S, Result &R) {
  PassResult P;
  for (size_t I = 0; I != S.Apps.size(); ++I) {
    soak::SoakOptions O = S.Opts;
    O.Packets = S.Packets[I];
    int64_t T0 = nowNs();
    soak::SoakReport Rep = soak::runSoak(*S.Apps[I], O);
    P.Wall += secondsSince(T0);
    P.Packets += Rep.Stats.Packets;
    mergeStats(P.Stats, Rep.Stats);
    R.Attempted += O.Packets;
    R.fail(Rep.Divergences,
           formatf("%s: %llu oracle divergences (first: %s)",
                   Rep.App.c_str(), (unsigned long long)Rep.Divergences,
                   Rep.First.What.c_str()));
    if (Rep.Stats.Packets != O.Packets)
      R.fail(O.Packets - Rep.Stats.Packets,
             Rep.App + ": stream ended early");
  }
  return P;
}

bool sameFold(const sim::RunStats &A, const sim::RunStats &B) {
  return A.Packets == B.Packets && A.Delivered == B.Delivered &&
         A.Rejected == B.Rejected && A.Drops == B.Drops &&
         A.TotalCycles == B.TotalCycles &&
         A.TotalInstructions == B.TotalInstructions &&
         A.DeliveredPayloadBytes == B.DeliveredPayloadBytes &&
         A.p50Cycles() == B.p50Cycles() && A.p99Cycles() == B.p99Cycles();
}

} // namespace

void StreamMeter::pass(Result &R) {
  PassResult P = runPass(S, R);
  Rates.push_back(double(P.Packets) / P.Wall);
  Packets += P.Packets;
  Wall += P.Wall;
  RefWall += P.Wall * R.Host.factor();
  if (Rates.size() == 1) {
    First = P.Stats;
    R.metric("peak_rss_mb", peakRssMb(), "MiB");
  } else if (!sameFold(First, P.Stats)) {
    R.fail(P.Packets, "repeated pass of the same stream gave different "
                      "simulated results");
  }
}

void StreamMeter::finish(Result &R) const {
  packetMetrics(First, First.deliveredMbps(), double(Packets) / RefWall, R);
  R.meta("raw_pkts_per_s", formatf("%.1f", double(Packets) / Wall));
  R.meta("passes", Rates.size());
  R.meta("pass_pkts_per_s", jsonList(Rates, "%.1f"));
}

Result runStandaloneValid(const RunConfig &C) {
  Result R;
  soak::SoakOptions Opts = standaloneOptions(C.Seed);
  SetupSampler Setup(AppNames, SetupRounds, Opts.Lat);
  auto Harnesses = Setup.sample(R);
  if (Harnesses.empty())
    return R;

  StreamSet S;
  for (auto &H : Harnesses)
    S.Apps.push_back(H.get());
  S.Packets = StandalonePackets;
  S.Opts = Opts;
  R.meta("packets_per_pass", jsonCounts(AppNames, StandalonePackets));
  R.meta("oracle_every", OracleEvery);

  ScopedFaultInjection Armed(C.SimFaults);
  if (!C.Trace) {
    StreamMeter Meter(S);
    int64_t T0 = nowNs();
    while (Meter.passes() < MinPasses || secondsSince(T0) < C.Seconds) {
      Meter.pass(R);
      Setup.maybeSample(secondsSince(T0), C.Seconds, R);
    }
    Meter.finish(R);
    Setup.finish(R);
    return R;
  }

  // Traced run: alternate a timed pass (the timed run's exact code)
  // with a span-attributed pass of the same streams, at least once.
  R.Spans = std::make_unique<Tracer>();
  Tracer &T = *R.Spans;
  double PlainWall = 0, TracedWall = 0;
  unsigned Pairs = 0;
  int64_t Start = nowNs();
  do {
    PassResult Plain = runPass(S, R);
    PlainWall += Plain.Wall;

    int64_t P0 = nowNs();
    sim::RunStats Traced;
    for (size_t I = 0; I != S.Apps.size(); ++I) {
      const soak::AppHarness &App = *S.Apps[I];
      const std::string &Name = App.name();
      soak::SoakOptions O = S.Opts;
      O.Packets = S.Packets[I];
      {
        Tracer::Scope Sp(T, "fastpath.translate." + Name, I);
        fastpath::Translated Tr =
            fastpath::translate(App.compiled().Alloc.Prog, O.Lat);
      }
      {
        Tracer::Scope Sp(T, "soak.gen." + Name, I);
        soak::PacketTemplateCache Cache;
        std::vector<soak::SoakPacket> Batch;
        for (uint64_t Base = 0; Base < O.Packets; Base += 256)
          App.generateBatch(Base, std::min<uint64_t>(256, O.Packets - Base),
                            O.Seed, O.Mix, Cache, Batch);
      }
      soak::SoakOptions NoOracle = O;
      NoOracle.OracleEvery = 0;
      soak::SoakReport Rep;
      {
        Tracer::Scope Sp(T, "soak.run." + Name, I);
        Rep = soak::runSoak(App, NoOracle);
      }
      // runSoak regenerates and retranslates internally; what remains of
      // its span once both are taken out is fast-path execution.
      R.add("fastpath.exec_s." + Name, -Rep.TranslateSeconds, "s");
      mergeStats(Traced, Rep.Stats);
      R.add("sim.instructions." + Name, double(Rep.Stats.TotalInstructions),
            "count");
      R.add("sim.cycles." + Name, double(Rep.Stats.TotalCycles), "cycles");

      uint64_t Checks = 0;
      for (uint64_t K = 0; K < O.Packets; K += O.OracleEvery) {
        Tracer::Scope Sp(T, "soak.oracle." + Name, K);
        soak::SoakPacket P = App.generate(K, O.Seed, O.Mix);
        soak::PacketOutcome PO = soak::runPacket(App, P, O, true);
        ++Checks;
        ++R.Attempted;
        if (PO.Diverged)
          R.fail(1, Name + ": oracle divergence: " + PO.What);
      }
      R.add("soak.oracle_checks." + Name, double(Checks), "count");
    }
    TracedWall += secondsSince(P0);
    if (!sameFold(Plain.Stats, Traced))
      R.fail(Plain.Packets, "traced pass gave different simulated results "
                            "than the timed pass");
    ++Pairs;
  } while (secondsSince(Start) < C.Seconds);

  // Per-pass averages.
  double GenS = 0;
  for (size_t I = 0; I != S.Apps.size(); ++I) {
    const std::string &Name = S.Apps[I]->name();
    double Gen = T.total("soak.gen." + Name);
    GenS += Gen;
    R.add("fastpath.exec_s." + Name, T.total("soak.run." + Name) - Gen, "s");
    R.metric("fastpath.translate_s." + Name,
             T.total("fastpath.translate." + Name), "s");
    R.metric("soak.oracle_s." + Name, T.total("soak.oracle." + Name), "s");
  }
  R.metric("soak.gen_s", GenS, "s");
  for (const char *Prefix : {"fastpath.", "sim.", "soak."})
    R.scale(Prefix, Pairs);
  R.traceSummary(TracedWall, PlainWall, Pairs);
  return R;
}

} // namespace perfbench
