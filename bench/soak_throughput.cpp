//===- soak_throughput.cpp - Interp vs threaded soak throughput ------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
// Measures packets per second of the soak harness in both execution
// modes — the per-packet interpreter (sim::runAllocated) and the
// translating fast path (fastpath::SegmentContext::run on every packet
// with a sampled interpreter oracle) — across oracle sampling rates.
// Every run keeps the differential oracle's verdict: any divergence
// fails the bench, so the numbers are always measured on
// verified-identical execution.
//
// The absolute numbers are environment-bound (this is a 1-core CI box;
// see EXPERIMENTS.md "Soak throughput" for the analysis): watchdog-class
// packets execute their full 50k-instruction budget in *both* modes by
// construction, packet generation costs ~4us/packet, and every oracle
// sample runs three extra semantic models. The interesting output is
// the interp/threaded ratio per rate, not any single pkt/s figure.
//
//   bench/soak_throughput [--app nat] [--packets N] [--seed S] [--json F]
//
//===----------------------------------------------------------------------===//

#include "soak/Soak.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <cstring>
#include <string>
#include <vector>

using namespace nova;

int main(int argc, char **argv) {
  std::string App = "nat";
  uint64_t Packets = 50'000;
  uint64_t Seed = 42;
  std::string JsonPath = "BENCH_soak_throughput.json";
  for (int I = 1; I < argc; ++I) {
    auto want = [&](const char *Flag) {
      return std::strcmp(argv[I], Flag) == 0 && I + 1 < argc;
    };
    if (want("--app"))
      App = argv[++I];
    else if (want("--packets"))
      Packets = std::strtoull(argv[++I], nullptr, 10);
    else if (want("--seed"))
      Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (want("--json"))
      JsonPath = argv[++I];
    else {
      std::fprintf(stderr, "usage: soak_throughput [--app name] "
                           "[--packets n] [--seed s] [--json file]\n");
      return 2;
    }
  }

  std::string Error;
  auto H = soak::AppHarness::create(App, Error);
  if (!H) {
    std::fprintf(stderr, "soak_throughput: %s: %s\n", App.c_str(),
                 Error.c_str());
    return 1;
  }

  std::printf("Soak throughput: %s, %llu packets, seed %llu\n", App.c_str(),
              (unsigned long long)Packets, (unsigned long long)Seed);
  std::printf("%9s | %11s | %10s %9s | %10s\n", "exec", "oracle-rate",
              "pkt/s", "wall-s", "checks");

  // Generator-only baseline: the same batched stream with execution
  // stubbed out entirely. This is the hard ceiling any exec mode is
  // measured against — generator cost is recorded, not inferred from
  // the gap between modes.
  std::string Json = "[";
  bool First = true;
  {
    soak::ClassMix Mix;
    soak::PacketTemplateCache Cache;
    std::vector<soak::SoakPacket> Batch;
    uint64_t WordSink = 0;
    Timer Clock;
    for (uint64_t Base = 0; Base < Packets;) {
      uint64_t N = Packets - Base < 256 ? Packets - Base : 256;
      H->generateBatch(Base, N, Seed, Mix, Cache, Batch);
      // Touch each packet so the generator's writes cannot be elided.
      for (uint64_t I = 0; I != N; ++I)
        WordSink += Batch[I].Words.size() + Batch[I].Args.size();
      Base += N;
    }
    double Wall = Clock.seconds();
    double Rate = Wall > 0 ? double(Packets) / Wall : 0;
    std::printf("%9s | %11s | %10.1f %9.3f | %10s\n", "gen-only", "-", Rate,
                Wall, "-");
    Json += formatf("{\"app\":\"%s\",\"packets\":%llu,\"seed\":%llu,"
                    "\"exec_mode\":\"generator-only\",\"wall_seconds\":%.6f,"
                    "\"pkts_per_sec\":%.1f,\"word_sink\":%llu}",
                    App.c_str(), (unsigned long long)Packets,
                    (unsigned long long)Seed, Wall, Rate,
                    (unsigned long long)WordSink);
    First = false;
  }

  // Oracle rate 0 is the execution-speed ceiling (no oracle at all);
  // 1/10/100 match the EXPERIMENTS.md table. Interp at rate 0 is the
  // pure interpreter; threaded at rate 0 is the pure fast path.
  const uint64_t Rates[] = {0, 100, 10, 1};
  for (soak::ExecMode Mode :
       {soak::ExecMode::Interp, soak::ExecMode::Threaded}) {
    for (uint64_t Rate : Rates) {
      soak::SoakOptions Opts;
      Opts.Packets = Packets;
      Opts.Seed = Seed;
      Opts.Exec = Mode;
      Opts.OracleEvery = Rate;
      soak::SoakReport R = soak::runSoak(*H, Opts);
      if (R.Divergences) {
        std::fprintf(stderr,
                     "soak_throughput: %s rate %llu DIVERGED (packet %llu: "
                     "%s)\n",
                     soak::execModeName(Mode), (unsigned long long)Rate,
                     (unsigned long long)R.First.Index, R.First.What.c_str());
        return 1;
      }
      std::printf("%9s | %11llu | %10.1f %9.3f | %10llu\n",
                  soak::execModeName(Mode), (unsigned long long)Rate,
                  R.packetsPerSec(), R.WallSeconds,
                  (unsigned long long)R.OracleChecks);
      Json += (First ? "" : ",") + soak::reportJson(R);
      First = false;
    }
  }
  Json += "]";

  std::FILE *F = std::fopen(JsonPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "soak_throughput: cannot write %s\n",
                 JsonPath.c_str());
    return 1;
  }
  std::fprintf(F, "%s\n", Json.c_str());
  std::fclose(F);
  std::printf("wrote %s\n", JsonPath.c_str());
  return 0;
}
