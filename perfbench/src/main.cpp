//===- main.cpp - Repository benchmark entry point -------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--work-dir <dir>] [--inject-fault <sim spec>]
///           [--fault-schedule <chip schedule>]
///
/// Runs one workload in this process on one thread and prints one JSON
/// line: correct/attempted/failed, every metric with its unit, the first
/// failure messages and the run metadata. Exits 1 when any operation
/// failed (the correctness gate), 2 on a usage error. The two fault
/// flags are the gate's negative controls.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <unistd.h>

using namespace nova;
using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <compile-paper-apps|"
               "standalone-valid|chip-nat-recovery> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--inject-fault <spec>] [--fault-schedule <schedule>]\n");
  return 2;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20) {
      Out += formatf("\\u%04x", Ch);
      continue;
    }
    Out += Ch;
  }
  return Out + "\"";
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  C.WorkDir = ".bench_build/perfbench-work";
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    if (Flag == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (Flag == "--seconds") {
      C.Seconds = std::atof(V.c_str());
    } else if (Flag == "--trace") {
      C.Trace = V == "1";
    } else if (Flag == "--work-dir") {
      C.WorkDir = V;
    } else if (Flag == "--inject-fault") {
      FaultSpec S;
      std::string Error;
      if (!parseFaultSpec(V, S, Error) ||
          faultKindDomain(S.Kind) != FaultDomain::Sim) {
        std::fprintf(stderr, "perfbench: bad sim fault '%s' %s\n", V.c_str(),
                     Error.c_str());
        return 2;
      }
      C.SimFaults.push_back(S);
    } else if (Flag == "--fault-schedule") {
      std::string Error;
      if (!parseFaultSchedule(V, C.ExtraChipFaults, Error)) {
        std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
        return 2;
      }
    } else {
      return usage();
    }
  }
  if (!HaveWorkload || C.Seconds <= 0)
    return usage();
  resetDir(C.WorkDir);

  Result R;
  if (C.Workload == "compile-paper-apps")
    R = runCompilePaperApps(C);
  else if (C.Workload == "standalone-valid")
    R = runStandaloneValid(C);
  else if (C.Workload == "chip-nat-recovery")
    R = runChipNatRecovery(C);
  else
    return usage();
  if (R.Attempted == 0)
    R.fail(1, "nothing ran");

  if (R.Spans) {
    std::string Path = C.WorkDir + "/" + C.Workload + ".trace.json";
    if (R.Spans->writeChromeTrace(Path))
      R.meta("span_file", jsonString(Path));
    R.meta("spans", R.Spans->size());
  }

  R.meta("workload", jsonString(C.Workload));
  R.meta("seed", C.Seed);
  R.meta("seconds", formatf("%g", C.Seconds));
  R.meta("trace", C.Trace ? 1 : 0);
  R.meta("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  R.meta("compiler", jsonString(PERFBENCH_COMPILER));
  R.meta("build_type", jsonString(PERFBENCH_BUILD_TYPE));
  R.meta("threads", 1);
  R.meta("host_speed", R.Host.summary());
  R.meta("failed_frac", formatf("%.17g", double(R.Failed) /
                                             double(R.Attempted)));

  std::string J = "{";
  J += formatf("\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
               R.Failed ? "false" : "true", (unsigned long long)R.Attempted,
               (unsigned long long)R.Failed);
  J += "\"metrics\":{";
  for (size_t I = 0; I != R.Metrics.size(); ++I)
    J += formatf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", I ? "," : "",
                 R.Metrics[I].Name.c_str(), R.Metrics[I].Value,
                 R.Metrics[I].Unit.c_str());
  J += "},\"failures\":[";
  for (size_t I = 0; I != R.Failures.size(); ++I)
    J += (I ? "," : "") + jsonString(R.Failures[I]);
  J += "],\"meta\":{";
  for (size_t I = 0; I != R.Meta.size(); ++I)
    J += formatf("%s\"%s\":", I ? "," : "", R.Meta[I].first.c_str()) +
         R.Meta[I].second;
  J += "}}";
  std::printf("%s\n", J.c_str());
  return R.Failed ? 1 : 0;
}
