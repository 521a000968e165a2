//===- Common.h - Shared pieces of the repository benchmark -----*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run configuration, the result record every workload fills, the
/// host-speed calibration of its timings, the in-memory span recorder of
/// traced runs, and small helpers (stat merging, image hashing, medians
/// and means) shared by the workload drivers.
///
/// Spans are recorded only from the benchmark's own files, around calls
/// into each module's public functions; nothing inside src/ is
/// instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "sim/Simulator.h"
#include "soak/Soak.h"
#include "support/FaultInjection.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// What one invocation runs.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Negative control: sim-domain fault plan armed around the measured
  /// packet streams (empty = none).
  std::vector<nova::FaultSpec> SimFaults;
  /// Negative control: chip fault schedule entries appended to the
  /// workload's own schedule.
  nova::FaultSchedule ExtraChipFaults;
  /// Directory the benchmark owns for checkpoints and span dumps.
  std::string WorkDir;
};

/// Monotonic nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double secondsSince(int64_t StartNs) {
  return double(nowNs() - StartNs) * 1e-9;
}

/// In-memory span recorder. Spans nest through an explicit stack; each
/// carries the span that caused it (Parent) and a request id (packet
/// sequence number or app index) shared by the spans of one request.
class Tracer {
public:
  static constexpr uint32_t NoParent = ~0u;
  struct Span {
    uint32_t Name;
    uint32_t Parent;
    uint64_t Req;
    int64_t Begin;
    int64_t End;
  };

  /// Opens a span; close it with end() in LIFO order.
  uint32_t begin(const std::string &Name, uint64_t Req = 0);
  void end(uint32_t Id);

  class Scope {
  public:
    Scope(Tracer &T, const std::string &Name, uint64_t Req = 0)
        : T(T), Id(T.begin(Name, Req)) {}
    ~Scope() { T.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    uint32_t Id;
  };

  /// Seconds inside spans called \p Name.
  double total(const std::string &Name) const;
  /// Same, minus the time their direct children cover (self time).
  double self(const std::string &Name) const;
  /// Seconds covered by root spans.
  double rootTotal() const;
  size_t size() const { return Spans.size(); }

  /// Writes every span as Chrome trace-event JSON (opens in Perfetto).
  bool writeChromeTrace(const std::string &Path) const;

private:
  uint32_t intern(const std::string &Name);
  std::vector<std::string> Names;
  std::vector<Span> Spans;
  std::vector<uint32_t> Stack;
};

/// Host-speed calibration of the end-to-end timings. The shared host
/// drifts between fast and slow phases (up to 2x, for seconds to tens of
/// minutes) that slow the program and a small switch-dispatch
/// interpreter loop alike, while the run's own work stays the same. After
/// every timed interval the benchmark runs that fixed loop and scales
/// the interval by RefLoopSeconds / the loop's wall: the interval in
/// reference seconds, as it would read on a host where the loop takes
/// RefLoopSeconds. The loop is the benchmark's, never the program's, so
/// a change to the program cannot move it; raw wall times stay in meta
/// and in the traced run's spans.
class HostSpeed {
public:
  static constexpr double RefLoopSeconds = 0.02;
  /// Runs the loop; returns RefLoopSeconds / its wall.
  double factor();
  /// Mean, least and greatest of every factor() so far, as JSON.
  std::string summary() const;

private:
  std::vector<double> Factors;
};

/// One run's outcome: named metrics with units, operation counts, the
/// first failure messages, and run metadata (JSON values by key).
struct Result {
  struct Metric {
    std::string Name;
    double Value = 0;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  std::vector<std::pair<std::string, std::string>> Meta;
  /// Spans of a traced run (written out when the run ends).
  std::unique_ptr<Tracer> Spans;
  /// Calibrates every end-to-end timing of the run.
  HostSpeed Host;

  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Adds \p Value to metric \p Name (created at 0 when absent).
  void add(const std::string &Name, double Value, const std::string &Unit);
  /// Counts \p N failed operations; keeps the first few messages.
  void fail(uint64_t N, const std::string &Why);
  /// Sets meta entry \p Key (replacing an earlier value).
  void meta(const std::string &Key, const std::string &JsonValue);
  void meta(const std::string &Key, uint64_t Value);
  /// Divides every metric whose name starts with \p Prefix by \p N.
  void scale(const std::string &Prefix, double N);
  /// Records span coverage of the traced passes and the traced passes'
  /// extra wall time over the timed passes they were paired with.
  void traceSummary(double TracedWall, double PlainWall, unsigned Pairs);
};

/// Folds \p From into \p Into (histograms merged bucket by bucket).
void mergeStats(nova::sim::RunStats &Into, const nova::sim::RunStats &From);

/// FNV fold over every SDRAM word, exactly as the chip soak's image hash.
uint64_t sdramImageHash(const nova::sim::Memory &M);

double median(std::vector<double> V);
double mean(const std::vector<double> &V);

/// Peak resident set of this process in MiB.
double peakRssMb();

/// Removes every regular file in \p Dir (creating \p Dir if missing).
void resetDir(const std::string &Dir);

/// The set-up every workload pays before its first compile round or
/// first packet: AppHarness::create (compile incl. ILP) plus fast-path
/// translation of every app it runs. A run samples it Rounds times,
/// spread over the run (one sample before the measured work, the others
/// whenever the measured loop crosses the next k/Rounds of its budget),
/// so that slow drifts in host speed hit set-up and measured work alike.
/// Reports setup_s as the median, compile_s as the mean (a host that
/// flips between fast and slow phases moves a mean in proportion, but
/// makes a median jump between the phases), both in reference seconds
/// (HostSpeed), and code_instrs; counts each
/// compile as one operation and every compile whose ladder rung is not a
/// proved optimum as a failure.
class SetupSampler {
public:
  SetupSampler(std::vector<std::string> Apps, unsigned Rounds,
               const nova::sim::LatencyModel &Lat)
      : Apps(std::move(Apps)), Rounds(Rounds), Lat(Lat) {}

  /// One timed set-up; returns the harnesses (empty on failure).
  std::vector<std::unique_ptr<nova::soak::AppHarness>> sample(Result &R);
  /// Takes another sample when \p Elapsed of \p Budget seconds has
  /// crossed the next sampling point.
  void maybeSample(double Elapsed, double Budget, Result &R);
  /// Takes the samples still missing and records the metrics.
  void finish(Result &R);

private:
  std::vector<std::string> Apps;
  unsigned Rounds;
  nova::sim::LatencyModel Lat;
  std::vector<double> SetupS, CompileS;       ///< reference seconds
  std::vector<double> RawSetupS, RawCompileS; ///< wall seconds
  unsigned Instrs = 0;
};

/// Failure check shared by every compile the benchmark makes.
void checkCompile(const std::string &App, const nova::driver::CompileResult &C,
                  Result &R);

/// End-to-end packet metrics from a merged stream fold.
void packetMetrics(const nova::sim::RunStats &S, double GoodputMbps,
                   double PktsPerSec, Result &R);

/// Standalone (single-ME) soak streams: one fixed-length seeded stream
/// per app, all run with the same options.
struct StreamSet {
  std::vector<const nova::soak::AppHarness *> Apps;
  std::vector<uint64_t> Packets; ///< stream length per app
  nova::soak::SoakOptions Opts;  ///< Packets is overridden per app
};

/// Times passes over a StreamSet: every stream of the set back to back
/// is one pass. Every pass must reproduce the first pass's simulated
/// fold exactly, and every oracle divergence is a failure.
class StreamMeter {
public:
  explicit StreamMeter(const StreamSet &S) : S(S) {}
  /// Runs and times one pass. The first pass also samples peak_rss_mb:
  /// memory after a fixed amount of work (the process keeps growing on
  /// longer runs while the oracle leaks, which would tie the figure to
  /// the run length).
  void pass(Result &R);
  size_t passes() const { return Rates.size(); }
  /// Records pkts_per_s (every pass's packets over every pass's wall,
  /// in reference seconds) and the deterministic packet metrics.
  void finish(Result &R) const;

private:
  const StreamSet &S;
  std::vector<double> Rates;
  uint64_t Packets = 0;
  double Wall = 0, RefWall = 0;
  nova::sim::RunStats First;
};

/// "[a,b,...]" with each value printed by \p Fmt.
std::string jsonList(const std::vector<double> &V, const char *Fmt);
/// {"app": count, ...}
std::string jsonCounts(const std::vector<std::string> &Apps,
                       const std::vector<uint64_t> &Counts);

// Workload drivers.
Result runCompilePaperApps(const RunConfig &C);
Result runStandaloneValid(const RunConfig &C);
Result runChipNatRecovery(const RunConfig &C);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
