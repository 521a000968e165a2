//===- Common.cpp - Shared pieces of the repository benchmark -------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "chip/Ring.h"
#include "fastpath/FastPath.h"
#include "support/BinIO.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sys/resource.h>

using namespace nova;

namespace perfbench {

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Metrics.push_back({Name, Value, Unit});
}

void Result::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M.Value += Value;
      return;
    }
  Metrics.push_back({Name, Value, Unit});
}

void Result::fail(uint64_t N, const std::string &Why) {
  if (N == 0)
    return;
  Failed += N;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

void Result::meta(const std::string &Key, const std::string &JsonValue) {
  for (auto &[K, V] : Meta)
    if (K == Key) {
      V = JsonValue;
      return;
    }
  Meta.emplace_back(Key, JsonValue);
}

void Result::meta(const std::string &Key, uint64_t Value) {
  meta(Key, std::to_string(Value));
}

void Result::scale(const std::string &Prefix, double N) {
  for (Metric &M : Metrics)
    if (M.Name.rfind(Prefix, 0) == 0)
      M.Value /= N;
}

void Result::traceSummary(double TracedWall, double PlainWall,
                          unsigned Pairs) {
  metric("trace.coverage", Spans ? Spans->rootTotal() / TracedWall : 0,
         "share");
  metric("trace.overhead_frac", TracedWall / PlainWall - 1, "share");
  meta("traced_pairs", Pairs);
}

namespace {
/// Keeps the calibration loop's result alive.
volatile uint64_t LoopSink;
} // namespace

double HostSpeed::factor() {
  // A fixed pseudo-random byte program, dispatched one op at a time with
  // a data-dependent jump: the shape of the program's own interpreters.
  static const std::vector<uint8_t> Code = [] {
    std::vector<uint8_t> C(4096);
    uint32_t X = 12345;
    for (uint8_t &Op : C) {
      X = X * 1103515245u + 12345u;
      Op = (X >> 16) & 7;
    }
    return C;
  }();
  int64_t T0 = nowNs();
  uint64_t A = 1, B = 2, D = 3;
  uint32_t Pc = 0;
  for (unsigned I = 0; I != 2'000'000; ++I) {
    switch (Code[Pc]) {
    case 0:
      A += B;
      break;
    case 1:
      B ^= A >> 3;
      break;
    case 2:
      D += A * B;
      break;
    case 3:
      A = (A << 1) | (D & 1);
      break;
    case 4:
      if (A & 4)
        Pc = (Pc + 7) & 4095;
      break;
    case 5:
      B += D;
      break;
    case 6:
      D ^= B;
      break;
    default:
      A -= D;
      break;
    }
    Pc = (Pc + 1) & 4095;
  }
  LoopSink = A + B + D;
  Factors.push_back(RefLoopSeconds / secondsSince(T0));
  return Factors.back();
}

std::string HostSpeed::summary() const {
  if (Factors.empty())
    return "null";
  auto [Lo, Hi] = std::minmax_element(Factors.begin(), Factors.end());
  return formatf(
      "{\"mean\":%.4f,\"min\":%.4f,\"max\":%.4f,\"samples\":%zu}",
      mean(Factors), *Lo, *Hi, Factors.size());
}

uint32_t Tracer::intern(const std::string &Name) {
  for (uint32_t I = 0; I != Names.size(); ++I)
    if (Names[I] == Name)
      return I;
  Names.push_back(Name);
  return static_cast<uint32_t>(Names.size() - 1);
}

uint32_t Tracer::begin(const std::string &Name, uint64_t Req) {
  uint32_t Parent = Stack.empty() ? NoParent : Stack.back();
  Spans.push_back({intern(Name), Parent, Req, nowNs(), 0});
  uint32_t Id = static_cast<uint32_t>(Spans.size() - 1);
  Stack.push_back(Id);
  return Id;
}

void Tracer::end(uint32_t Id) {
  Spans[Id].End = nowNs();
  Stack.pop_back();
}

double Tracer::total(const std::string &Name) const {
  int64_t Ns = 0;
  for (const Span &S : Spans)
    if (Names[S.Name] == Name)
      Ns += S.End - S.Begin;
  return double(Ns) * 1e-9;
}

double Tracer::self(const std::string &Name) const {
  int64_t Ns = 0;
  for (const Span &S : Spans) {
    if (Names[S.Name] == Name)
      Ns += S.End - S.Begin;
    else if (S.Parent != NoParent && Names[Spans[S.Parent].Name] == Name)
      Ns -= S.End - S.Begin;
  }
  return double(Ns) * 1e-9;
}

double Tracer::rootTotal() const {
  int64_t Ns = 0;
  for (const Span &S : Spans)
    if (S.Parent == NoParent)
      Ns += S.End - S.Begin;
  return double(Ns) * 1e-9;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t T0 = Spans.empty() ? 0 : Spans.front().Begin;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"req\":%llu}}\n",
                 I ? "," : "", Names[S.Name].c_str(),
                 double(S.Begin - T0) * 1e-3, double(S.End - S.Begin) * 1e-3,
                 I, S.Parent == NoParent ? -1LL : (long long)S.Parent,
                 (unsigned long long)S.Req);
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

void mergeStats(sim::RunStats &Into, const sim::RunStats &From) {
  Into.Packets += From.Packets;
  Into.Delivered += From.Delivered;
  Into.Rejected += From.Rejected;
  Into.Drops += From.Drops;
  for (unsigned K = 0; K != sim::NumTrapKinds; ++K)
    Into.Traps[K] += From.Traps[K];
  Into.TotalCycles += From.TotalCycles;
  Into.TotalInstructions += From.TotalInstructions;
  Into.DeliveredPayloadBytes += From.DeliveredPayloadBytes;
  // The histogram's bucket counts are reachable only through its
  // checkpoint serialization: sum the two images word by word.
  BinWriter A, B;
  Into.Cycles.saveState(A);
  From.Cycles.saveState(B);
  BinReader RA(A.bytes()), RB(B.bytes());
  BinWriter Sum;
  while (RA.remaining() != 0)
    Sum.u64(RA.u64() + RB.u64());
  BinReader RS(Sum.bytes());
  Into.Cycles.restoreState(RS);
}

uint64_t sdramImageHash(const sim::Memory &M) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const auto &[Addr, Val] : M.Sdram) {
    H = chip::traceFold(H, Addr);
    H = chip::traceFold(H, Val);
  }
  return H;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / double(V.size());
}

std::string jsonList(const std::vector<double> &V, const char *Fmt) {
  std::string J = "[";
  for (size_t I = 0; I != V.size(); ++I)
    J += (I ? "," : "") + formatf(Fmt, V[I]);
  return J + "]";
}

std::string jsonCounts(const std::vector<std::string> &Apps,
                       const std::vector<uint64_t> &Counts) {
  std::string J = "{";
  for (size_t I = 0; I != Apps.size(); ++I)
    J += formatf("%s\"%s\":%llu", I ? "," : "", Apps[I].c_str(),
                 (unsigned long long)Counts[I]);
  return J + "}";
}

double peakRssMb() {
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

void resetDir(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  for (const auto &E : fs::directory_iterator(Dir, EC))
    if (E.is_regular_file())
      fs::remove(E.path(), EC);
}

void checkCompile(const std::string &App, const driver::CompileResult &C,
                  Result &R) {
  ++R.Attempted;
  if (!C.Ok) {
    R.fail(1, App + ": compile failed: " + C.ErrorText);
    return;
  }
  const alloc::AllocStats &S = C.Alloc.Stats;
  if (S.Rung != alloc::AllocRung::Optimal || !S.ProvedOptimal)
    R.fail(1, formatf("%s: allocation rung %s (proved optimal: %s)",
                      App.c_str(), alloc::rungName(S.Rung),
                      S.ProvedOptimal ? "yes" : "no"));
}

std::vector<std::unique_ptr<soak::AppHarness>>
SetupSampler::sample(Result &R) {
  std::vector<std::unique_ptr<soak::AppHarness>> Harnesses;
  int64_t T0 = nowNs();
  double Compile = 0;
  Instrs = 0;
  for (const std::string &Name : Apps) {
    int64_t C0 = nowNs();
    std::string Error;
    auto H = soak::AppHarness::create(Name, Error);
    Compile += secondsSince(C0);
    if (!H) {
      ++R.Attempted;
      R.fail(1, Name + ": " + Error);
      return {};
    }
    checkCompile(Name, H->compiled(), R);
    fastpath::Translated T = fastpath::translate(H->compiled().Alloc.Prog, Lat);
    Instrs += H->compiled().Alloc.Prog.numInstructions();
    Harnesses.push_back(std::move(H));
  }
  RawSetupS.push_back(secondsSince(T0));
  RawCompileS.push_back(Compile);
  double F = R.Host.factor();
  SetupS.push_back(RawSetupS.back() * F);
  CompileS.push_back(Compile * F);
  return Harnesses;
}

void SetupSampler::maybeSample(double Elapsed, double Budget, Result &R) {
  if (SetupS.size() < Rounds && Elapsed >= Budget * SetupS.size() / Rounds)
    sample(R);
}

void SetupSampler::finish(Result &R) {
  while (SetupS.size() < Rounds)
    sample(R);
  R.metric("setup_s", median(SetupS), "s");
  R.metric("compile_s", mean(CompileS), "s");
  R.metric("code_instrs", Instrs, "instrs");
  R.meta("setup_rounds", Rounds);
  R.meta("setup_round_s", jsonList(RawSetupS, "%.4f"));
  R.meta("raw_setup_s", formatf("%.6f", median(RawSetupS)));
  R.meta("raw_compile_s", formatf("%.6f", mean(RawCompileS)));
}

void packetMetrics(const sim::RunStats &S, double GoodputMbps,
                   double PktsPerSec, Result &R) {
  R.metric("pkts_per_s", PktsPerSec, "pkt/s");
  R.metric("goodput_mbps", GoodputMbps, "Mbps");
  R.metric("latency_p50_cycles", double(S.p50Cycles()), "cycles");
  R.metric("latency_p99_cycles", double(S.p99Cycles()), "cycles");
}

} // namespace perfbench
