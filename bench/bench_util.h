//===- bench_util.h - Shared helpers for the experiment harnesses ---------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#ifndef BENCH_BENCH_UTIL_H
#define BENCH_BENCH_UTIL_H

#include "apps/AppSources.h"
#include "driver/Compiler.h"
#include "support/StringUtils.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

// Build identity, defined by bench/CMakeLists.txt.
#ifndef NOVA_BENCH_COMPILER
#define NOVA_BENCH_COMPILER "unknown"
#endif
#ifndef NOVA_BENCH_BUILD_TYPE
#define NOVA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef NOVA_BENCH_SOURCE_DIR
#define NOVA_BENCH_SOURCE_DIR "."
#endif

namespace bench {

inline std::string appSource(const std::string &Name) {
  if (Name == "AES")
    return nova::apps::aesNovaSource();
  if (Name == "Kasumi")
    return nova::apps::kasumiNovaSource();
  return nova::apps::natNovaSource();
}

/// Compiles one of the paper's applications with a solve-time budget and a
/// branch-and-bound thread count.
inline std::unique_ptr<nova::driver::CompileResult>
compileApp(const std::string &Name, bool Allocate = true,
           double TimeLimit = 600.0, unsigned MipThreads = 1,
           bool Deterministic = false) {
  nova::driver::CompileOptions Opts;
  Opts.Allocate = Allocate;
  Opts.Alloc.Mip.TimeLimitSeconds = TimeLimit;
  Opts.Alloc.Mip.Threads = MipThreads;
  Opts.Alloc.Mip.Deterministic = Deterministic;
  auto R = nova::driver::compileNova(appSource(Name), Name, Opts);
  if (!R->Ok)
    std::fprintf(stderr, "%s failed: %s\n", Name.c_str(),
                 R->ErrorText.c_str());
  return R;
}

/// Strict count flag parsing (nova::parseInteger: decimal or 0x-hex, no
/// sign, no trailing text) into an unsigned.
inline bool parseCount(const char *S, unsigned &Out) {
  std::optional<uint64_t> V = nova::parseInteger(S);
  if (!V || *V > ~0u)
    return false;
  Out = static_cast<unsigned>(*V);
  return true;
}

/// Strict floating-point flag parsing: the whole of \p S must be a
/// finite number.
inline bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(S, &End);
  if (End == S || *End || errno || !std::isfinite(V))
    return false;
  Out = V;
  return true;
}

/// Host and build identity stamped on every BENCH record, so records
/// from different hosts, commits and builds can be told apart.
struct HostMeta {
  std::string Commit = "unknown"; ///< HEAD of the source checkout,
                                  ///< "-dirty" with uncommitted edits
  long Nproc = 0;                 ///< online cores
  std::string Compiler = NOVA_BENCH_COMPILER;
  std::string BuildType = NOVA_BENCH_BUILD_TYPE;
};

inline HostMeta hostMeta() {
  HostMeta M;
  M.Nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string Cmd = std::string("git -C '") + NOVA_BENCH_SOURCE_DIR +
                    "' describe --always --dirty --abbrev=40 2>/dev/null";
  if (std::FILE *P = popen(Cmd.c_str(), "r")) {
    char Buf[64] = {0};
    if (std::fgets(Buf, sizeof(Buf), P)) {
      std::string C(Buf);
      while (!C.empty() && (C.back() == '\n' || C.back() == '\r'))
        C.pop_back();
      if (!C.empty())
        M.Commit = C;
    }
    pclose(P);
  }
  return M;
}

/// One solver run for the machine-readable perf trajectory
/// (BENCH_solver.json): what the paper's Figure 7 tabulates plus the
/// parallel-search counters.
struct SolverRun {
  std::string Program;
  unsigned Threads = 1;
  bool Deterministic = false;
  unsigned Nodes = 0;
  unsigned LpIterations = 0;
  unsigned Steals = 0;
  double RootSeconds = 0.0;
  double TotalSeconds = 0.0;
  double CpuSeconds = 0.0;
  double Objective = 0.0;
  double RootObjective = 0.0;
  unsigned Moves = 0;
  unsigned Spills = 0;
  // LP-engine counters (sparse LU basis): how often the factors were
  // rebuilt, how many pivots the eta files absorbed, and how many full
  // reduced-cost recomputations ran.
  unsigned Factorizations = 0;
  unsigned EtaPivots = 0;
  unsigned PricingPasses = 0;
};

inline SolverRun solverRunFrom(const std::string &Program,
                               const nova::alloc::AllocStats &S,
                               bool Deterministic = false) {
  SolverRun R;
  R.Program = Program;
  R.Threads = S.Solve.Threads;
  R.Deterministic = Deterministic;
  R.Nodes = S.Solve.Nodes;
  R.LpIterations = S.Solve.LpIterations;
  R.Steals = S.Solve.Steals;
  R.RootSeconds = S.Solve.RootLpSeconds;
  R.TotalSeconds = S.Solve.TotalSeconds;
  R.CpuSeconds = S.Solve.CpuSeconds;
  R.Objective = S.Objective;
  R.RootObjective = S.Solve.RootObjective;
  R.Moves = S.Moves;
  R.Spills = S.Spills;
  R.Factorizations = S.Solve.Factorizations;
  R.EtaPivots = S.Solve.EtaPivots;
  R.PricingPasses = S.Solve.PricingPasses;
  return R;
}

/// Writes the accumulated runs as a JSON array, one object per solve,
/// each stamped with hostMeta(). Returns false (with a message on
/// stderr) if the file cannot be written.
inline bool writeSolverJson(const std::string &Path,
                            const std::vector<SolverRun> &Runs) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  const HostMeta H = hostMeta();
  std::fprintf(F, "[\n");
  for (size_t I = 0; I != Runs.size(); ++I) {
    const SolverRun &R = Runs[I];
    std::fprintf(
        F,
        "  {\"program\": \"%s\", \"threads\": %u, \"deterministic\": %s, "
        "\"nodes\": %u, \"lp_iterations\": %u, \"steals\": %u, "
        "\"root_seconds\": %.6f, \"total_seconds\": %.6f, "
        "\"cpu_seconds\": %.6f, \"objective\": %.9g, "
        "\"root_objective\": %.9g, \"moves\": %u, \"spills\": %u, "
        "\"factorizations\": %u, \"eta_pivots\": %u, "
        "\"pricing_passes\": %u, \"commit\": \"%s\", \"nproc\": %ld, "
        "\"compiler\": \"%s\", \"build_type\": \"%s\"}%s\n",
        R.Program.c_str(), R.Threads, R.Deterministic ? "true" : "false",
        R.Nodes, R.LpIterations, R.Steals, R.RootSeconds, R.TotalSeconds,
        R.CpuSeconds, R.Objective, R.RootObjective, R.Moves, R.Spills,
        R.Factorizations, R.EtaPivots, R.PricingPasses, H.Commit.c_str(),
        H.Nproc, H.Compiler.c_str(), H.BuildType.c_str(),
        I + 1 == Runs.size() ? "" : ",");
  }
  std::fprintf(F, "]\n");
  std::fclose(F);
  std::printf("wrote %s (%zu runs)\n", Path.c_str(), Runs.size());
  return true;
}

} // namespace bench

#endif // BENCH_BENCH_UTIL_H
