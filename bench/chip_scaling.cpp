//===- chip_scaling.cpp - Whole-chip multi-engine scaling ------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
// Sweeps the processing micro-engine count (1, 2, 4, 6) over the same
// seeded packet stream and reports aggregate goodput, channel contention
// stalls, and ring occupancy per configuration, writing BENCH_chip.json.
// This is the whole-chip counterpart of bench/throughput.cpp: instead of
// approximating thread overlap with discounted latencies, the chip model
// measures it — four hardware contexts per engine hide memory latency
// until the shared SDRAM/scratch channels saturate, which is exactly the
// contention effect the paper's falling Kasumi series shows.
//
//   bench/chip_scaling [--app nat] [--packets N] [--seed S] [--json F]
//                      [--fault-schedule kind@rate[~mag],...]
//
// With --fault-schedule the sweep measures goodput *under* faults (the
// degradation curve in EXPERIMENTS.md); the interp/threaded trace-hash
// cross-check still holds because fault firing is a pure function of
// deterministic opportunity ordinals. Every record carries the host and
// build identity (bench_util.h hostMeta: commit, nproc, compiler, build
// type).
//
//===----------------------------------------------------------------------===//

#include "bench_util.h"
#include "soak/ChipSoak.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <cstring>
#include <map>
#include <string>

using namespace nova;

int main(int argc, char **argv) {
  std::string App = "nat";
  uint64_t Packets = 20'000;
  uint64_t Seed = 42;
  std::string JsonPath = "BENCH_chip.json";
  FaultSchedule Faults;
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
    else if (want("--fault-schedule")) {
      std::string Error;
      if (!parseFaultSchedule(argv[++I], Faults, Error)) {
        std::fprintf(stderr, "chip_scaling: --fault-schedule: %s\n",
                     Error.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: chip_scaling [--app name] [--packets n] "
                   "[--seed s] [--json file] "
                   "[--fault-schedule kind@rate[~mag],...]\n");
      return 2;
    }
  }

  std::string Error;
  auto H = soak::AppHarness::create(App, Error);
  if (!H) {
    std::fprintf(stderr, "chip_scaling: %s: %s\n", App.c_str(),
                 Error.c_str());
    return 1;
  }

  std::printf("Whole-chip scaling: %s, %llu packets, seed %llu\n",
              App.c_str(), (unsigned long long)Packets,
              (unsigned long long)Seed);
  std::printf("%8s | %4s | %10s %8s %8s | %10s %10s | %8s %8s | %6s\n",
              "exec", "MEs", "cycles", "Mbps", "wall-s", "sdram-st",
              "scr-st", "in-hw", "reord", "util0");

  // Both execution models sweep the same ME counts. The simulated
  // schedule is identical by construction (chip_test locks whole-report
  // equality); the trace hashes are cross-checked here too, so the
  // wall-clock ratio is measured on verified-identical simulations.
  std::string Json = "[";
  bool First = true;
  const bench::HostMeta Host = bench::hostMeta();
  std::map<unsigned, uint64_t> InterpHash;
  std::map<unsigned, double> InterpWall;
  double OneMe = 0, SixMeRatio = 0;
  for (chip::ExecModel Exec :
       {chip::ExecModel::Interp, chip::ExecModel::Threaded}) {
    bool Threaded = Exec == chip::ExecModel::Threaded;
    for (unsigned Mes : {1u, 2u, 4u, 6u}) {
      soak::ChipSoakOptions Opts;
      Opts.Base.Packets = Packets;
      Opts.Base.Seed = Seed;
      Opts.Base.OracleEvery = 0; // measured run; correctness lives in tests
      Opts.Chip.MP.MeCount = Mes;
      Opts.Chip.Exec = Exec;
      Opts.Chip.Faults = Faults;
      soak::ChipSoakReport R = soak::runChipSoak(*H, Opts);
      if (!R.Setup.ok()) {
        std::fprintf(stderr, "chip_scaling: %s\n", R.Setup.message().c_str());
        return 1;
      }
      if (R.Chip.Deadlock || R.Base.Divergences) {
        std::fprintf(stderr, "chip_scaling: me=%u run not clean\n", Mes);
        return 1;
      }
      if (!Threaded) {
        InterpHash[Mes] = R.Chip.TraceHash;
        InterpWall[Mes] = R.Base.WallSeconds;
      } else if (R.Chip.TraceHash != InterpHash[Mes]) {
        std::fprintf(stderr,
                     "chip_scaling: me=%u trace hash diverges between exec "
                     "models (%016llx vs %016llx)\n",
                     Mes, (unsigned long long)InterpHash[Mes],
                     (unsigned long long)R.Chip.TraceHash);
        return 1;
      }
      if (!Threaded && Mes == 1)
        OneMe = R.GoodputMbps;
      unsigned MaxInHw = 0;
      std::string InHw = "[";
      for (unsigned M = 0; M != R.Chip.InputRings.size(); ++M) {
        if (R.Chip.InputRings[M].HighWater > MaxInHw)
          MaxInHw = R.Chip.InputRings[M].HighWater;
        InHw += formatf("%s%u", M ? "," : "", R.Chip.InputRings[M].HighWater);
      }
      InHw += "]";
      std::printf(
          "%8s | %4u | %10llu %8.1f %8.3f | %10llu %10llu | %8u %8u | %5.2f\n",
          Threaded ? "threaded" : "interp", Mes,
          (unsigned long long)R.Chip.FinalCycles, R.GoodputMbps,
          R.Base.WallSeconds, (unsigned long long)R.Chip.Sdram.StallCycles,
          (unsigned long long)R.Chip.Scratch.StallCycles, MaxInHw,
          R.Chip.ReorderHighWater, R.Chip.utilization(0));

      Json += formatf(
          "%s{\"app\":\"%s\",\"packets\":%llu,\"seed\":%llu,"
          "\"exec_mode\":\"%s\",\"wall_seconds\":%.6f,"
          "\"superblocks\":%llu,\"superblock_ops\":%llu,"
          "\"me_count\":%u,\"contexts\":%u,\"final_cycles\":%llu,"
          "\"goodput_mbps\":%.3f,"
          "\"stall_cycles\":{\"sram\":%llu,\"sdram\":%llu,\"scratch\":%llu},"
          "\"input_ring_high_water\":%s,\"tx_ring_high_water\":%u,"
          "\"reorder_high_water\":%u,\"tail_packets\":%llu,"
          "\"lockups_injected\":%llu,\"packets_recovered\":%llu,"
          "\"lockup_drops\":%llu,\"backpressure_drops\":%llu,"
          "\"trace_hash\":\"%016llx\",\"commit\":\"%s\",\"nproc\":%ld,"
          "\"compiler\":\"%s\",\"build_type\":\"%s\"}",
          First ? "" : ",", App.c_str(), (unsigned long long)Packets,
          (unsigned long long)Seed, Threaded ? "threaded" : "interp",
          R.Base.WallSeconds, (unsigned long long)R.Chip.Superblocks,
          (unsigned long long)R.Chip.SuperblockOps, Mes,
          Opts.Chip.MP.ContextsPerMe, (unsigned long long)R.Chip.FinalCycles,
          R.GoodputMbps, (unsigned long long)R.Chip.Sram.StallCycles,
          (unsigned long long)R.Chip.Sdram.StallCycles,
          (unsigned long long)R.Chip.Scratch.StallCycles, InHw.c_str(),
          R.Chip.TxRing.HighWater, R.Chip.ReorderHighWater,
          (unsigned long long)R.Chip.TailPackets,
          (unsigned long long)R.Chip.Recovery.LockupsInjected,
          (unsigned long long)R.Chip.Recovery.PacketsRecovered,
          (unsigned long long)R.Chip.Recovery.LockupDrops,
          (unsigned long long)R.Chip.Recovery.BackpressureDrops,
          (unsigned long long)R.Chip.TraceHash, Host.Commit.c_str(),
          Host.Nproc, Host.Compiler.c_str(), Host.BuildType.c_str());
      First = false;
      if (Threaded && Mes == 6 && R.Base.WallSeconds > 0)
        SixMeRatio = InterpWall[Mes] / R.Base.WallSeconds;
      if (!Threaded && Mes == 6 && OneMe > 0)
        std::printf("\n6-ME/1-ME goodput ratio: %.2fx\n\n",
                    R.GoodputMbps / OneMe);
    }
  }
  Json += "]";
  if (SixMeRatio > 0)
    std::printf("\n6-ME threaded/interp wall speedup: %.2fx\n", SixMeRatio);

  std::FILE *F = std::fopen(JsonPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "chip_scaling: cannot write %s\n",
                 JsonPath.c_str());
    return 1;
  }
  std::fprintf(F, "%s\n", Json.c_str());
  std::fclose(F);
  return 0;
}
