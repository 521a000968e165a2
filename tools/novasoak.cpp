//===- novasoak.cpp - Adversarial packet soak driver ----------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Compiles the paper's benchmark applications once, then streams seeded
// adversarial traffic through the allocated code with the differential
// oracle on. Exit codes: 0 clean soak, 1 oracle divergence found,
// 2 usage error, 4 compile/allocation failure, 5 checkpoint/resume
// failure (no valid snapshot, or the newest snapshot belongs to a
// different run).
//
//===----------------------------------------------------------------------===//

#include "soak/ChipSoak.h"
#include "soak/Soak.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

using namespace nova;

static void usage() {
  std::fprintf(
      stderr,
      "usage: novasoak [options]\n"
      "  --app <name>        aes, kasumi, nat, or all (default all)\n"
      "  --packets <n>       packets per app (default 10000)\n"
      "  --seed <s>          stream seed (default 1)\n"
      "  --budget <n>        per-packet instruction watchdog (default "
      "50000)\n"
      "  --mix v,t,o,c,f     class weights: valid,truncated,oversized,\n"
      "                      corrupt,fuzz (default 55,15,10,10,10)\n"
      "  --exec <mode>       interp (reference, default) or threaded\n"
      "                      (translate once, computed-goto dispatch,\n"
      "                      sampled interpreter oracle); with --chip,\n"
      "                      threaded runs contexts on the segmented\n"
      "                      fast path, bit-identical to interp\n"
      "  --oracle-every <n>  differential-check every nth packet\n"
      "                      (default 1 = all; 0 disables the oracle;\n"
      "                      threaded mode defaults to 10)\n"
      "  --oracle-rate <n>   alias for --oracle-every\n"
      "  --no-shrink         keep the first diverging packet as-is\n"
      "  --fail-fast         stop a stream at its first divergence\n"
      "  --time-limit <s>    ILP budget per app compile (default 60)\n"
      "  --inject-fault <kind>[@<after>][x<times>][~<mag>]\n"
      "                      arm a sim-domain runtime fault: mem-jitter\n"
      "                      (latency noise) or sim-bitflip (ALU\n"
      "                      corruption the oracle must catch). Solver\n"
      "                      kinds belong to novac and chip kinds to\n"
      "                      --fault-schedule; both are usage errors "
      "here\n"
      "  --fault-schedule <kind>@<rate>[~<mag>][,...]\n"
      "                      chip-domain fault schedule (requires "
      "--chip):\n"
      "                      ctx-lockup, ring-stall, chan-brownout,\n"
      "                      sdram-bitflip, dma-drop; each kind fires\n"
      "                      every rate-th opportunity. The supervisor\n"
      "                      recovers (watchdog + bounded retries) and\n"
      "                      accounts every fault in the --json "
      "recovery\n"
      "                      object\n"
      "  --json <file>       write per-app reports as a JSON array\n"
      "  --quiet             suppress the per-app summary tables\n"
      "  --chip              run the whole-chip simulator: RX sharding\n"
      "                      across micro-engines, hardware contexts\n"
      "                      swapping on memory references, contended\n"
      "                      channels, in-order TX retirement\n"
      "  --me-count <n>      processing micro-engines, 1..8 (chip mode\n"
      "                      only; default 6)\n"
      "  --contexts <n>      hardware contexts per ME, 1..8 (chip mode\n"
      "                      only; default 4)\n"
      "  --ring-depth <n>    scratch ring capacity, 1..64 (chip mode\n"
      "                      only; default 4)\n"
      "  --checkpoint-every <n>\n"
      "                      snapshot resumable state every n retired\n"
      "                      packets (requires --checkpoint-dir and a\n"
      "                      single --app)\n"
      "  --checkpoint-dir <dir>\n"
      "                      directory for ckpt-<retired>.nova-ckpt\n"
      "                      snapshots (atomic write+rename)\n"
      "  --resume <dir>      resume from the newest valid snapshot in\n"
      "                      dir; the finished report is byte-identical\n"
      "                      to an uninterrupted run (exit 5 when no\n"
      "                      valid matching snapshot exists)\n"
      "  --progress <n>      stderr heartbeat every n retired packets:\n"
      "                      packets, pkt/s, last durable checkpoint\n"
      "  --kill-after <n>    crash harness: raise SIGKILL once n packets\n"
      "                      have retired (tests mid-run death)\n"
      "  --stable-json       zero wall-clock fields and chip kernel\n"
      "                      counters in --json output so resumed and\n"
      "                      uninterrupted runs compare byte-for-byte\n");
}

namespace {

/// Same strict flag cracker as novac: "--flag value" and "--flag=value",
/// malformed input is a usage error, never a silent zero.
struct ArgParser {
  int Argc;
  char **Argv;
  int I = 1;
  bool Failed = false;

  bool done() const { return I >= Argc || Failed; }
  const char *current() const { return Argv[I]; }

  bool valueFlag(const char *Name, std::string &Value) {
    const char *Arg = Argv[I];
    size_t Len = std::strlen(Name);
    if (std::strncmp(Arg, Name, Len) != 0)
      return false;
    if (Arg[Len] == '=') {
      Value = Arg + Len + 1;
      ++I;
      return true;
    }
    if (Arg[Len] != '\0')
      return false;
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "novasoak: %s requires a value\n", Name);
      Failed = true;
      return true;
    }
    Value = Argv[++I];
    ++I;
    return true;
  }

  bool boolFlag(const char *Name) {
    if (std::strcmp(Argv[I], Name) != 0)
      return false;
    ++I;
    return true;
  }

  void fail(const char *Fmt, const std::string &Value) {
    std::fprintf(stderr, Fmt, Value.c_str());
    Failed = true;
  }
};

bool parseU64(const std::string &Text, uint64_t &Out) {
  std::optional<uint64_t> V = parseInteger(Text);
  if (!V)
    return false;
  Out = *V;
  return true;
}

bool parseMix(const std::string &Text, soak::ClassMix &Mix) {
  uint64_t W[5];
  size_t Pos = 0;
  for (unsigned I = 0; I != 5; ++I) {
    size_t Comma = I == 4 ? Text.size() : Text.find(',', Pos);
    if (Comma == std::string::npos)
      return false;
    if (!parseU64(Text.substr(Pos, Comma - Pos), W[I]) || W[I] > 1000000)
      return false;
    Pos = Comma + 1;
  }
  Mix.Valid = static_cast<unsigned>(W[0]);
  Mix.Truncated = static_cast<unsigned>(W[1]);
  Mix.Oversized = static_cast<unsigned>(W[2]);
  Mix.Corrupt = static_cast<unsigned>(W[3]);
  Mix.Fuzz = static_cast<unsigned>(W[4]);
  return Mix.total() != 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string AppName = "all";
  std::string JsonPath;
  bool Quiet = false;
  bool StableJson = false;
  bool ChipMode = false;
  bool SawOracleEvery = false;
  bool SawMeCount = false, SawContexts = false, SawRingDepth = false;
  bool SawFaultSchedule = false;
  chip::ChipParams Chip;
  std::vector<FaultSpec> Faults;
  soak::SoakOptions Opts;
  driver::CompileOptions COpts = soak::AppHarness::defaultCompileOptions();

  ArgParser P{argc, argv};
  while (!P.done()) {
    std::string V;
    if (P.valueFlag("--app", V))
      AppName = V;
    else if (P.valueFlag("--packets", V)) {
      if (!P.Failed && (!parseU64(V, Opts.Packets) || Opts.Packets == 0))
        P.fail("novasoak: --packets expects a positive integer, got "
               "'%s'\n",
               V);
    } else if (P.valueFlag("--seed", V)) {
      if (!P.Failed && !parseU64(V, Opts.Seed))
        P.fail("novasoak: --seed expects an integer, got '%s'\n", V);
    } else if (P.valueFlag("--budget", V)) {
      if (!P.Failed && (!parseU64(V, Opts.Budget) || Opts.Budget == 0))
        P.fail("novasoak: --budget expects a positive integer, got "
               "'%s'\n",
               V);
    } else if (P.valueFlag("--mix", V)) {
      if (!P.Failed && !parseMix(V, Opts.Mix))
        P.fail("novasoak: --mix expects five comma-separated weights "
               "with a nonzero sum, got '%s'\n",
               V);
    } else if (P.valueFlag("--exec", V)) {
      if (!P.Failed) {
        if (V == "interp")
          Opts.Exec = soak::ExecMode::Interp;
        else if (V == "threaded")
          Opts.Exec = soak::ExecMode::Threaded;
        else
          P.fail("novasoak: --exec expects 'interp' or 'threaded', got "
                 "'%s'\n",
                 V);
      }
    } else if (P.valueFlag("--oracle-every", V) ||
               P.valueFlag("--oracle-rate", V)) {
      SawOracleEvery = true;
      if (!P.Failed && !parseU64(V, Opts.OracleEvery))
        P.fail("novasoak: --oracle-every expects an integer, got '%s'\n",
               V);
    } else if (P.boolFlag("--no-shrink"))
      Opts.Shrink = false;
    else if (P.boolFlag("--fail-fast"))
      Opts.FailFast = true;
    else if (P.boolFlag("--quiet"))
      Quiet = true;
    else if (P.valueFlag("--time-limit", V)) {
      char *End = nullptr;
      double S = std::strtod(V.c_str(), &End);
      if (End == V.c_str() || *End != '\0' || !(S > 0.0))
        P.fail("novasoak: --time-limit expects a positive number of "
               "seconds, got '%s'\n",
               V);
      else
        COpts.Alloc.Mip.TimeLimitSeconds = S;
    } else if (P.valueFlag("--inject-fault", V)) {
      if (!P.Failed) {
        FaultSpec Spec;
        std::string Error;
        if (!parseFaultSpec(V, Spec, Error))
          P.fail("novasoak: --inject-fault: %s\n", Error);
        else if (faultKindDomain(Spec.Kind) != FaultDomain::Sim)
          // Strict rejection instead of the old silent no-op: a
          // solver-domain kind never reaches a packet runtime hook.
          P.fail("novasoak: --inject-fault: fault kind '%s' is "
                 "solver-domain (use novac --inject-fault)\n",
                 faultKindName(Spec.Kind));
        else
          Faults.push_back(Spec);
      }
    } else if (P.valueFlag("--fault-schedule", V)) {
      SawFaultSchedule = true;
      if (!P.Failed) {
        std::string Error;
        if (!parseFaultSchedule(V, Chip.Faults, Error))
          P.fail("novasoak: --fault-schedule: %s\n", Error);
      }
    } else if (P.valueFlag("--json", V)) {
      if (!P.Failed)
        JsonPath = V;
    } else if (P.boolFlag("--chip"))
      ChipMode = true;
    else if (P.valueFlag("--me-count", V)) {
      SawMeCount = true;
      uint64_t N;
      if (!P.Failed && (!parseU64(V, N) || N < 1 || N > 8))
        P.fail("novasoak: --me-count expects an integer in 1..8, got "
               "'%s'\n",
               V);
      else if (!P.Failed)
        Chip.MP.MeCount = static_cast<unsigned>(N);
    } else if (P.valueFlag("--contexts", V)) {
      SawContexts = true;
      uint64_t N;
      if (!P.Failed && (!parseU64(V, N) || N < 1 || N > 8))
        P.fail("novasoak: --contexts expects an integer in 1..8, got "
               "'%s'\n",
               V);
      else if (!P.Failed)
        Chip.MP.ContextsPerMe = static_cast<unsigned>(N);
    } else if (P.valueFlag("--ring-depth", V)) {
      SawRingDepth = true;
      uint64_t N;
      if (!P.Failed && (!parseU64(V, N) || N < 1 || N > 64))
        P.fail("novasoak: --ring-depth expects an integer in 1..64, got "
               "'%s'\n",
               V);
      else if (!P.Failed)
        Chip.RingDepth = static_cast<unsigned>(N);
    } else if (P.valueFlag("--checkpoint-every", V)) {
      if (!P.Failed &&
          (!parseU64(V, Opts.Ckpt.Every) || Opts.Ckpt.Every == 0))
        P.fail("novasoak: --checkpoint-every expects a positive integer, "
               "got '%s'\n",
               V);
    } else if (P.valueFlag("--checkpoint-dir", V)) {
      if (!P.Failed)
        Opts.Ckpt.Dir = V;
    } else if (P.valueFlag("--resume", V)) {
      if (!P.Failed) {
        Opts.Ckpt.Dir = V;
        Opts.Ckpt.Resume = true;
      }
    } else if (P.valueFlag("--progress", V)) {
      if (!P.Failed && (!parseU64(V, Opts.Ckpt.ProgressEvery) ||
                        Opts.Ckpt.ProgressEvery == 0))
        P.fail("novasoak: --progress expects a positive integer, got "
               "'%s'\n",
               V);
    } else if (P.valueFlag("--kill-after", V)) {
      if (!P.Failed &&
          (!parseU64(V, Opts.Ckpt.KillAfter) || Opts.Ckpt.KillAfter == 0))
        P.fail("novasoak: --kill-after expects a positive integer, got "
               "'%s'\n",
               V);
    } else if (P.boolFlag("--stable-json"))
      StableJson = true;
    else {
      std::fprintf(stderr, "novasoak: unknown option '%s'\n", P.current());
      P.Failed = true;
    }
  }
  // Chip-mode combination rules, enforced before any compile work: the
  // topology flags only mean something with --chip, and a single-shot
  // chip run cannot stop mid-stream. --exec threaded composes with
  // --chip since segmented fast-path execution (fastpath::SegmentContext)
  // keeps the discrete-event schedule bit-identical; --inject-fault
  // composes too — an armed injector pins execution to the
  // interpreter-exact slow tier in both modes, so the retire-time oracle
  // still catches flips (but see the checkpoint rule below).
  if (!ChipMode && (SawMeCount || SawContexts || SawRingDepth)) {
    std::fprintf(stderr, "novasoak: --me-count/--contexts/--ring-depth "
                         "require --chip\n");
    P.Failed = true;
  }
  // Chip-domain faults only exist inside the whole-chip scheduler; a
  // schedule without --chip would be a silent no-op, so reject it.
  if (!ChipMode && SawFaultSchedule) {
    std::fprintf(stderr, "novasoak: --fault-schedule requires --chip\n");
    P.Failed = true;
  }
  // On the chip the sim fault injector is armed once for the whole
  // stream (standalone runs re-arm it per packet), and its state is not
  // in the snapshot, so a resumed faulted chip run would silently differ
  // from the uninterrupted one.
  if (ChipMode && !Faults.empty() &&
      (Opts.Ckpt.active() || Opts.Ckpt.KillAfter != 0)) {
    std::fprintf(stderr,
                 "novasoak: --inject-fault with --chip is incompatible with "
                 "--checkpoint-every/--resume/--kill-after (the injector's "
                 "state is not checkpointed)\n");
    P.Failed = true;
  }
  if (ChipMode && Opts.FailFast) {
    std::fprintf(stderr,
                 "novasoak: --fail-fast is incompatible with --chip "
                 "(a chip run drains its whole stream)\n");
    P.Failed = true;
  }
  // Checkpoints are per-stream: one directory holds one (app, seed,
  // config) run's snapshots, so multi-app invocations would interleave
  // incompatible files. Require a single app.
  if ((Opts.Ckpt.active() || Opts.Ckpt.KillAfter != 0) &&
      AppName == "all") {
    std::fprintf(stderr, "novasoak: --checkpoint-every/--resume/"
                         "--kill-after require a single --app\n");
    P.Failed = true;
  }
  if (Opts.Ckpt.Every != 0 && Opts.Ckpt.Dir.empty()) {
    std::fprintf(stderr,
                 "novasoak: --checkpoint-every requires --checkpoint-dir "
                 "(or --resume)\n");
    P.Failed = true;
  }
  // The fast path exists to amortize the oracle: checking every packet
  // in threaded mode would be interpreter-bound, so default to 1-in-10
  // unless the user picked a rate.
  if (!SawOracleEvery && Opts.Exec == soak::ExecMode::Threaded)
    Opts.OracleEvery = 10;
  if (P.Failed) {
    usage();
    return 2;
  }

  std::vector<std::string> Apps;
  if (AppName == "all")
    Apps = {"aes", "kasumi", "nat"};
  else
    Apps = {AppName};

  // Compile everything before arming faults: injection targets the
  // packet runtime here, not the allocator.
  std::vector<std::unique_ptr<soak::AppHarness>> Harnesses;
  for (const std::string &Name : Apps) {
    std::string Error;
    auto H = soak::AppHarness::create(Name, Error, COpts);
    if (!H) {
      std::fprintf(stderr, "novasoak: %s: %s\n", Name.c_str(),
                   Error.c_str());
      return AppName == "all" || Name == "aes" || Name == "kasumi" ||
                     Name == "nat"
                 ? 4
                 : 2;
    }
    Harnesses.push_back(std::move(H));
  }

  ScopedFaultInjection Armed(std::move(Faults));

  bool AnyDivergence = false;
  bool SetupError = false;
  std::string Json = "[";
  for (size_t I = 0; I != Harnesses.size(); ++I) {
    if (ChipMode) {
      soak::ChipSoakOptions CO;
      CO.Base = Opts;
      CO.Chip = Chip;
      CO.Chip.Exec = Opts.Exec == soak::ExecMode::Threaded
                         ? chip::ExecModel::Threaded
                         : chip::ExecModel::Interp;
      soak::ChipSoakReport Rep = soak::runChipSoak(*Harnesses[I], CO);
      if (!Rep.Base.CkptError.ok()) {
        std::fprintf(stderr, "novasoak: %s\n",
                     Rep.Base.CkptError.message().c_str());
        for (const std::string &H : Rep.Base.CkptError.hints())
          std::fprintf(stderr, "novasoak: hint: %s\n", H.c_str());
        return 5;
      }
      if (!Rep.Setup.ok()) {
        std::fprintf(stderr, "novasoak: %s: %s\n",
                     Harnesses[I]->name().c_str(),
                     Rep.Setup.message().c_str());
        SetupError = true;
      }
      if (StableJson) {
        Rep.Base.WallSeconds = 0;
        Rep.Base.TranslateSeconds = 0;
        Rep.Chip.Kernel = chip::KernelStats();
      }
      if (!Quiet)
        soak::printChipReport(Rep, stdout);
      if (Rep.Base.Divergences)
        AnyDivergence = true;
      if (I)
        Json += ",";
      Json += soak::chipReportJson(Rep);
      continue;
    }
    soak::SoakReport Rep = soak::runSoak(*Harnesses[I], Opts);
    if (!Rep.CkptError.ok()) {
      std::fprintf(stderr, "novasoak: %s\n", Rep.CkptError.message().c_str());
      for (const std::string &H : Rep.CkptError.hints())
        std::fprintf(stderr, "novasoak: hint: %s\n", H.c_str());
      return 5;
    }
    if (StableJson) {
      Rep.WallSeconds = 0;
      Rep.TranslateSeconds = 0;
    }
    if (!Quiet)
      soak::printReport(Rep, stdout);
    if (Rep.Divergences)
      AnyDivergence = true;
    if (I)
      Json += ",";
    Json += soak::reportJson(Rep);
  }
  Json += "]";

  if (!JsonPath.empty()) {
    std::FILE *F = std::fopen(JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "novasoak: cannot write %s\n",
                   JsonPath.c_str());
      return 2;
    }
    std::fprintf(F, "%s\n", Json.c_str());
    std::fclose(F);
  }

  if (SetupError)
    return 2;
  return AnyDivergence ? 1 : 0;
}
