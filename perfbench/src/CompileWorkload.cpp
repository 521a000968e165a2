//===- CompileWorkload.cpp - Compiling the paper's applications ------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// compile-paper-apps: repeated rounds that compile aes, kasumi and nat
/// through driver::compileNova to allocated programs (serial branch &
/// bound, the library default). After the timed rounds a verification
/// soak runs each compiled app on valid traffic under the interpreter
/// with the full differential oracle on every packet: that checks the
/// compiler's output and yields the packet-side end-to-end metrics of
/// the generated code.
///
/// The traced run replays the driver's pipeline stage by stage (parse,
/// sema, CPS conversion, optimisation + SSU, instruction selection,
/// allocation) with a span around each public call, and requires the
/// result to hash equal to compileNova's.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "apps/AppSources.h"
#include "checkpoint/Checkpoint.h"
#include "cps/Convert.h"
#include "ixp/ISel.h"
#include "nova/Parser.h"
#include "support/StringUtils.h"

using namespace nova;

namespace perfbench {

namespace {

const std::vector<std::string> AppNames = {"aes", "kasumi", "nat"};
/// Verification stream per app: interpreter + oracle on every packet,
/// about 0.4 s per app.
const std::vector<uint64_t> VerifyPackets = {300, 2'000, 3'000};
constexpr unsigned SetupRounds = 4;
constexpr unsigned MinRounds = 3;

std::string sourceOf(const std::string &App) {
  if (App == "aes")
    return apps::aesNovaSource();
  if (App == "kasumi")
    return apps::kasumiNovaSource();
  return apps::natNovaSource();
}

/// driver::compileNova, one public call per stage, each in a span.
/// Mirrors Compiler.cpp exactly; the caller checks the code hash.
std::unique_ptr<driver::CompileResult>
compileTraced(const std::string &Source, const std::string &App,
              const driver::CompileOptions &Opts, Tracer &T, uint64_t Req) {
  auto R = std::make_unique<driver::CompileResult>();
  uint32_t Buf = R->SM.addBuffer(App + ".nova", Source);
  R->Diags = std::make_unique<DiagnosticEngine>(R->SM);
  auto Fail = [&] {
    R->Ok = false;
    R->ErrorText = R->Diags->render();
    return std::move(R);
  };
  {
    Tracer::Scope S(T, "nova.parse", Req);
    Parser P(R->SM, Buf, R->Arena, *R->Diags);
    R->Ast = P.parseProgram();
  }
  if (R->Diags->hasErrors())
    return Fail();
  {
    Tracer::Scope S(T, "nova.sema", Req);
    R->Sema = std::make_unique<SemaResult>(*R->Diags);
    runSema(R->Ast, R->SM, *R->Diags, *R->Sema);
  }
  if (!R->Sema->Success)
    return Fail();
  bool Ok;
  {
    Tracer::Scope S(T, "cps.convert", Req);
    Ok = cps::convertToCps(R->Ast, *R->Sema, *R->Diags, R->Cps);
  }
  if (!Ok)
    return Fail();
  {
    Tracer::Scope S(T, "cps.opt", Req);
    R->Opt = cps::optimize(R->Cps);
    cps::makeStaticSingleUse(R->Cps);
    Ok = cps::allCalleesKnown(R->Cps);
  }
  if (!Ok)
    return Fail();
  {
    Tracer::Scope S(T, "ixp.isel", Req);
    Ok = ixp::selectInstructions(R->Cps, *R->Diags, R->Machine);
  }
  if (!Ok)
    return Fail();
  {
    Tracer::Scope S(T, "alloc.allocate." + App, Req);
    R->Alloc = alloc::allocate(R->Machine, *R->Diags, Opts.Alloc);
  }
  if (!R->Alloc.Ok) {
    R->ErrorText = R->Alloc.Error.render();
    return R;
  }
  R->Ok = true;
  return R;
}

/// Per-app layer counts of one compile (deterministic).
void compileCounts(const std::string &App, const driver::CompileResult &C,
                   Result &R) {
  const alloc::AllocStats &S = C.Alloc.Stats;
  R.add("ilp.nodes." + App, S.Solve.Nodes, "count");
  R.add("ilp.lp_iterations." + App, S.Solve.LpIterations, "count");
  R.add("ilp.factorizations." + App, S.Solve.Factorizations, "count");
  R.add("ilp.vars." + App, S.IlpSize.NumVariables, "count");
  R.add("ilp.cons." + App, S.IlpSize.NumConstraints, "count");
  R.add("ixp.machine_instrs." + App, C.Machine.numInstructions(), "instrs");
  R.add("cps.opt_rounds." + App, C.Opt.Rounds, "count");
  R.add("alloc.inserted_instrs." + App, C.Alloc.Prog.numInserted(), "instrs");
  R.add("alloc.spills." + App, S.Spills, "count");
  R.add("ilp.root_lp_s." + App, S.Solve.RootLpSeconds, "s");
  R.add("ilp.bnb_s." + App, S.Solve.TotalSeconds - S.Solve.RootLpSeconds,
        "s");
}

} // namespace

Result runCompilePaperApps(const RunConfig &C) {
  Result R;
  soak::SoakOptions VerifyOpts;
  VerifyOpts.Seed = C.Seed;
  VerifyOpts.Mix = soak::ClassMix{100, 0, 0, 0, 0};
  VerifyOpts.Exec = soak::ExecMode::Interp;
  VerifyOpts.OracleEvery = 1;
  VerifyOpts.Shrink = false;
  SetupSampler Setup(AppNames, SetupRounds, VerifyOpts.Lat);
  auto Harnesses = Setup.sample(R);
  if (Harnesses.empty())
    return R;

  std::vector<std::string> Sources;
  std::vector<uint64_t> Hashes;
  for (size_t I = 0; I != AppNames.size(); ++I) {
    Sources.push_back(sourceOf(AppNames[I]));
    Hashes.push_back(ckpt::codeHash(Harnesses[I]->compiled().Alloc.Prog));
  }
  const driver::CompileOptions Opts = soak::AppHarness::defaultCompileOptions();

  // One round = the three apps compiled by the driver; returns its wall.
  auto Round = [&]() {
    int64_t T0 = nowNs();
    for (size_t I = 0; I != AppNames.size(); ++I) {
      auto CR = driver::compileNova(Sources[I], AppNames[I] + ".nova", Opts);
      checkCompile(AppNames[I], *CR, R);
      if (CR->Ok && ckpt::codeHash(CR->Alloc.Prog) != Hashes[I])
        R.fail(1, AppNames[I] + ": recompiling gave different code");
    }
    return secondsSince(T0);
  };

  if (!C.Trace) {
    // Compile rounds alternate with verification passes, so both sample
    // the whole run rather than one end of it.
    StreamSet S;
    for (auto &H : Harnesses)
      S.Apps.push_back(H.get());
    S.Packets = VerifyPackets;
    S.Opts = VerifyOpts;
    StreamMeter Verify(S);
    ScopedFaultInjection Armed(C.SimFaults);
    std::vector<double> RoundS, RefRoundS;
    int64_t T0 = nowNs();
    while (RoundS.size() < MinRounds || secondsSince(T0) < C.Seconds) {
      RoundS.push_back(Round());
      RefRoundS.push_back(RoundS.back() * R.Host.factor());
      Verify.pass(R);
      Setup.maybeSample(secondsSince(T0), C.Seconds, R);
    }
    Setup.finish(R);
    Verify.finish(R);
    // Here compile_s is the driver rounds', not set-up's.
    R.metric("compile_s", mean(RefRoundS), "s");
    R.meta("raw_compile_s", formatf("%.6f", mean(RoundS)));
    R.meta("compile_rounds", RoundS.size());
    R.meta("compile_round_s", jsonList(RoundS, "%.4f"));
    R.meta("verify_packets_per_pass", jsonCounts(AppNames, VerifyPackets));
    return R;
  }

  // Traced run: pairs of a driver round and a stage-by-stage round.
  R.Spans = std::make_unique<Tracer>();
  Tracer &T = *R.Spans;
  double PlainWall = 0, TracedWall = 0;
  unsigned Pairs = 0;
  int64_t Start = nowNs();
  do {
    PlainWall += Round();
    int64_t P0 = nowNs();
    for (size_t I = 0; I != AppNames.size(); ++I) {
      const std::string &App = AppNames[I];
      auto CR = compileTraced(Sources[I], App, Opts, T, I);
      checkCompile(App, *CR, R);
      if (!CR->Ok)
        continue;
      if (ckpt::codeHash(CR->Alloc.Prog) != Hashes[I])
        R.fail(1, App + ": stage-by-stage compile hashes differently from "
                        "compileNova");
      compileCounts(App, *CR, R);
    }
    TracedWall += secondsSince(P0);
    ++Pairs;
  } while (secondsSince(Start) < C.Seconds);

  for (const char *Stage :
       {"nova.parse", "nova.sema", "cps.convert", "cps.opt", "ixp.isel"})
    R.metric(std::string(Stage) + "_s", T.total(Stage), "s");
  for (const std::string &App : AppNames) {
    double Total = T.total("alloc.allocate." + App);
    R.metric("alloc.total_s." + App, Total, "s");
    // allocate's span minus the solver's own clock: model build,
    // liveness/frequency, materialisation and verification.
    double Solver = 0;
    for (const Result::Metric &M : R.Metrics)
      if (M.Name == "ilp.root_lp_s." + App || M.Name == "ilp.bnb_s." + App)
        Solver += M.Value;
    R.metric("alloc.nonsolver_s." + App, Total - Solver, "s");
  }
  for (const char *Prefix : {"nova.", "cps.", "ixp.", "alloc.", "ilp."})
    R.scale(Prefix, Pairs);
  R.traceSummary(TracedWall, PlainWall, Pairs);
  return R;
}

} // namespace perfbench
