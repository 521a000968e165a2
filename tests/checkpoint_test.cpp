//===- checkpoint_test.cpp - Checkpoint/restore and resume equality --------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Four layers of coverage:
//
//  1. Serializer: BinWriter/BinReader roundtrips, reader failure
//     latching, and the checkpoint file format — header versioning,
//     checksum rejection of truncated and bit-flipped files, atomic
//     write+rename (no .tmp survivors), and typed meta-mismatch errors.
//  2. Directory policy: findLatestValid picks the newest snapshot,
//     skips corrupt tails, falls back to older valid files, and
//     hard-fails (never silently ignores) a newest-valid snapshot that
//     belongs to a different run.
//  3. Resume equality: a soak stream stopped mid-run (the in-process
//     StopAfter crash simulation) and resumed from its checkpoint must
//     produce a byte-identical stable report to an uninterrupted run —
//     standalone and whole-chip, interp and threaded, with and without
//     an armed chip fault schedule.
//  4. Chip snapshot validation: any order of the pending-event records
//     restores the same queue, and checksum-valid records with
//     out-of-range fields fail resume with a typed CheckpointCorrupt.
//
// Like soak_test, this compiles the nat app through the ILP allocator
// (cached in-process), so it runs as one ctest entry.
//
//===----------------------------------------------------------------------===//

#include "checkpoint/Checkpoint.h"
#include "soak/ChipSoak.h"
#include "soak/Soak.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include <dirent.h>
#include <unistd.h>

using namespace nova;

namespace {

/// Compiles nat once per process (ILP-bound; shared by the resume
/// tests below).
soak::AppHarness &natHarness() {
  static std::unique_ptr<soak::AppHarness> H = [] {
    driver::CompileOptions Opts = soak::AppHarness::defaultCompileOptions();
    Opts.Alloc.Mip.TimeLimitSeconds = 30.0;
    std::string Error;
    auto A = soak::AppHarness::create("nat", Error, Opts);
    if (!A) {
      ADD_FAILURE() << "compiling nat: " << Error;
      std::abort();
    }
    return A;
  }();
  return *H;
}

/// Fresh temp directory per test; removed with its contents on scope
/// exit.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/nova-ckpt-test-XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~TempDir() {
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        std::string N = E->d_name;
        if (N != "." && N != "..")
          ::unlink((Path + "/" + N).c_str());
      }
      closedir(D);
      ::rmdir(Path.c_str());
    }
  }
};

ckpt::CheckpointMeta testMeta(uint64_t Retired = 0) {
  ckpt::CheckpointMeta M;
  M.App = "nat";
  M.Seed = 42;
  M.Packets = 1000;
  M.CodeHash = 0x1234;
  M.PacketsRetired = Retired;
  return M;
}

std::string readFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  std::string Raw;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Raw.append(Buf, N);
  std::fclose(F);
  return Raw;
}

void writeFile(const std::string &Path, const std::string &Data) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  std::fwrite(Data.data(), 1, Data.size(), F);
  std::fclose(F);
}

/// Zeroes the wall-clock fields (the one legitimate difference between
/// a resumed and an uninterrupted run) and returns the JSON report.
std::string stableJson(soak::SoakReport R) {
  R.WallSeconds = 0;
  R.TranslateSeconds = 0;
  return soak::reportJson(R);
}

std::string stableChipJson(soak::ChipSoakReport R) {
  R.Base.WallSeconds = 0;
  R.Base.TranslateSeconds = 0;
  R.Chip.Kernel = chip::KernelStats(); // per-process, like wall time
  return soak::chipReportJson(R);
}

} // namespace

//===----------------------------------------------------------------------===//
// BinIO
//===----------------------------------------------------------------------===//

TEST(BinIO, RoundTripsEveryType) {
  BinWriter W;
  W.u8(0xab);
  W.b(true);
  W.b(false);
  W.u32(0xdeadbeef);
  W.u64(0x0123456789abcdefull);
  W.f64(3.25);
  W.str("hello");
  W.str(std::string("x\0y", 3)); // embedded NUL: str is length-prefixed
  W.vec32({1, 2, 3});
  W.vec64({});

  BinReader R(W.bytes());
  EXPECT_EQ(R.u8(), 0xab);
  EXPECT_TRUE(R.b());
  EXPECT_FALSE(R.b());
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(R.f64(), 3.25);
  EXPECT_EQ(R.str(), "hello");
  EXPECT_EQ(R.str(), std::string("x\0y", 3));
  EXPECT_EQ(R.vec32(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(R.vec64().empty());
  EXPECT_FALSE(R.failed());
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(BinIO, ReaderFailureLatches) {
  BinWriter W;
  W.u32(7);
  BinReader R(W.bytes());
  EXPECT_EQ(R.u32(), 7u);
  EXPECT_EQ(R.u64(), 0u); // past the end: zero and latched failure
  EXPECT_TRUE(R.failed());
  EXPECT_EQ(R.u32(), 0u); // stays failed, never reads garbage
  EXPECT_TRUE(R.failed());
}

TEST(BinIO, HugeVectorLengthDoesNotAllocate) {
  // A corrupt length prefix must not drive a multi-gigabyte allocation:
  // the reader bounds the claimed count against the bytes actually left.
  BinWriter W;
  W.u64(UINT64_MAX);
  BinReader R(W.bytes());
  EXPECT_TRUE(R.vec32().empty());
  EXPECT_TRUE(R.failed());
}

//===----------------------------------------------------------------------===//
// File format
//===----------------------------------------------------------------------===//

TEST(CheckpointFile, WriteReadRoundTrip) {
  TempDir D;
  ckpt::CheckpointMeta M = testMeta(500);
  M.Faults.push_back({FaultKind::CtxLockup, 5000, 0.0});
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, M, "payload-state").ok());

  ckpt::LoadedCheckpoint LC;
  ASSERT_TRUE(
      ckpt::readCheckpoint(D.Path + "/ckpt-500.nova-ckpt", LC).ok());
  EXPECT_EQ(LC.Meta.App, "nat");
  EXPECT_EQ(LC.Meta.Seed, 42u);
  EXPECT_EQ(LC.Meta.PacketsRetired, 500u);
  ASSERT_EQ(LC.Meta.Faults.size(), 1u);
  EXPECT_EQ(LC.Meta.Faults[0].Kind, FaultKind::CtxLockup);
  BinReader R = LC.stateReader();
  std::string State = LC.Payload.substr(LC.StateOffset);
  EXPECT_EQ(State, "payload-state");
  EXPECT_EQ(R.remaining(), State.size());
}

TEST(CheckpointFile, NoTmpSurvivesAWrite) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(1), "s").ok());
  DIR *Dir = opendir(D.Path.c_str());
  ASSERT_NE(Dir, nullptr);
  while (dirent *E = readdir(Dir)) {
    std::string N = E->d_name;
    EXPECT_EQ(N.find(".tmp"), std::string::npos) << N;
  }
  closedir(Dir);
}

TEST(CheckpointFile, RejectsWrongVersion) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(1), "s").ok());
  std::string Path = D.Path + "/ckpt-1.nova-ckpt";
  std::string Raw = readFile(Path);
  // The u32 version sits right after the u64 magic.
  Raw[8] = char(ckpt::FileVersion + 1);
  writeFile(Path, Raw);
  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::readCheckpoint(Path, LC);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointCorrupt);
  EXPECT_NE(S.message().find("version"), std::string::npos);
}

TEST(CheckpointFile, RejectsTruncation) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(1), "state").ok());
  std::string Path = D.Path + "/ckpt-1.nova-ckpt";
  std::string Raw = readFile(Path);
  writeFile(Path, Raw.substr(0, Raw.size() - 3));
  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::readCheckpoint(Path, LC);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointCorrupt);
  EXPECT_NE(S.message().find("truncated"), std::string::npos);
}

TEST(CheckpointFile, RejectsBitFlip) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(1), "state").ok());
  std::string Path = D.Path + "/ckpt-1.nova-ckpt";
  std::string Raw = readFile(Path);
  Raw[Raw.size() - 2] ^= 0x40; // flip one payload bit
  writeFile(Path, Raw);
  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::readCheckpoint(Path, LC);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointCorrupt);
  EXPECT_NE(S.message().find("checksum"), std::string::npos);
}

TEST(CheckpointFile, RejectsForeignBytes) {
  TempDir D;
  std::string Path = D.Path + "/ckpt-3.nova-ckpt";
  writeFile(Path, "this is not a checkpoint");
  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::readCheckpoint(Path, LC);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointCorrupt);
}

//===----------------------------------------------------------------------===//
// Directory policy
//===----------------------------------------------------------------------===//

TEST(CheckpointDir, PicksNewestValid) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(100), "a").ok());
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(900), "b").ok());
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(500), "c").ok());
  ckpt::LoadedCheckpoint LC;
  ASSERT_TRUE(ckpt::findLatestValid(D.Path, testMeta(), LC, nullptr).ok());
  EXPECT_EQ(LC.Meta.PacketsRetired, 900u);
}

TEST(CheckpointDir, CorruptLatestFallsBackToOlder) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(100), "a").ok());
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(900), "b").ok());
  std::string Latest = D.Path + "/ckpt-900.nova-ckpt";
  std::string Raw = readFile(Latest);
  Raw[Raw.size() - 1] ^= 0x01;
  writeFile(Latest, Raw);

  ckpt::LoadedCheckpoint LC;
  std::vector<std::string> Notes;
  ASSERT_TRUE(ckpt::findLatestValid(D.Path, testMeta(), LC, &Notes).ok());
  EXPECT_EQ(LC.Meta.PacketsRetired, 100u);
  ASSERT_EQ(Notes.size(), 1u);
  EXPECT_NE(Notes[0].find("checksum"), std::string::npos);
}

TEST(CheckpointDir, NewestValidMetaMismatchIsHardError) {
  // The newest structurally valid snapshot decides: if it belongs to a
  // different run, resuming an *older* matching file would silently
  // rewind, so this must be a typed hard error.
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(100), "a").ok());
  ckpt::CheckpointMeta Other = testMeta(500);
  Other.Seed = 43;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, Other, "b").ok());

  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::findLatestValid(D.Path, testMeta(), LC, nullptr);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointMismatch);
}

TEST(CheckpointDir, AllCorruptIsTypedError) {
  TempDir D;
  writeFile(D.Path + "/ckpt-5.nova-ckpt", "garbage");
  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::findLatestValid(D.Path, testMeta(), LC, nullptr);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointCorrupt);
}

//===----------------------------------------------------------------------===//
// Resume equality
//===----------------------------------------------------------------------===//

namespace {

/// Locks the checkpoint/resume contract for one standalone soak
/// configuration: uninterrupted, versus stopped at StopAt (the
/// in-process crash simulation) and resumed — the stable reports must
/// be byte-identical.
void expectStandaloneResumeEquality(soak::ExecMode Exec) {
  soak::AppHarness &H = natHarness();
  TempDir D;
  soak::SoakOptions Opts;
  Opts.Packets = 2000;
  Opts.Seed = 42;
  Opts.Exec = Exec;
  Opts.OracleEvery = 10;

  soak::SoakReport Ref = soak::runSoak(H, Opts);
  ASSERT_FALSE(Ref.Stopped);

  Opts.Ckpt.Every = 500;
  Opts.Ckpt.Dir = D.Path;
  Opts.Ckpt.StopAfter = 1100;
  soak::SoakReport Crashed = soak::runSoak(H, Opts);
  EXPECT_TRUE(Crashed.Stopped);
  EXPECT_GE(Crashed.Stats.Packets, 1100u);

  Opts.Ckpt.StopAfter = 0;
  Opts.Ckpt.Resume = true;
  soak::SoakReport Resumed = soak::runSoak(H, Opts);
  ASSERT_TRUE(Resumed.CkptError.ok()) << Resumed.CkptError.message();
  ASSERT_FALSE(Resumed.Stopped);
  EXPECT_FALSE(Resumed.ResumedFrom.empty());
  EXPECT_EQ(stableJson(Ref), stableJson(Resumed));
}

/// Same contract for the whole-chip soak, optionally under an armed
/// fault schedule (the supervisor ordinals and recovery ledger must
/// survive the round-trip too).
void expectChipResumeEquality(soak::ExecMode Exec, bool WithFaults) {
  soak::AppHarness &H = natHarness();
  TempDir D;
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 2000;
  Opts.Base.Seed = 42;
  Opts.Base.Exec = Exec;
  Opts.Base.OracleEvery = 10;
  Opts.Chip.Exec = Exec == soak::ExecMode::Threaded
                       ? chip::ExecModel::Threaded
                       : chip::ExecModel::Interp;
  if (WithFaults) {
    std::string Error;
    ASSERT_TRUE(parseFaultSchedule("ctx-lockup@500,chan-brownout@800~4",
                                   Opts.Chip.Faults, Error))
        << Error;
  }

  soak::ChipSoakReport Ref = soak::runChipSoak(H, Opts);
  ASSERT_TRUE(Ref.Setup.ok()) << Ref.Setup.message();
  ASSERT_FALSE(Ref.Base.Stopped);

  Opts.Base.Ckpt.Every = 500;
  Opts.Base.Ckpt.Dir = D.Path;
  Opts.Base.Ckpt.StopAfter = 1100;
  soak::ChipSoakReport Crashed = soak::runChipSoak(H, Opts);
  EXPECT_TRUE(Crashed.Base.Stopped);

  Opts.Base.Ckpt.StopAfter = 0;
  Opts.Base.Ckpt.Resume = true;
  soak::ChipSoakReport Resumed = soak::runChipSoak(H, Opts);
  ASSERT_TRUE(Resumed.Base.CkptError.ok())
      << Resumed.Base.CkptError.message();
  ASSERT_FALSE(Resumed.Base.Stopped);
  EXPECT_FALSE(Resumed.Base.ResumedFrom.empty());
  // Byte-identical stable JSON covers the trace hash, the image hash,
  // the recovery fold, and the whole drop taxonomy in one comparison.
  EXPECT_EQ(stableChipJson(Ref), stableChipJson(Resumed));
  EXPECT_EQ(Ref.Chip.TraceHash, Resumed.Chip.TraceHash);
  EXPECT_EQ(Ref.Chip.Recovery.fold(), Resumed.Chip.Recovery.fold());
}

} // namespace

TEST(ResumeEquality, StandaloneInterp) {
  expectStandaloneResumeEquality(soak::ExecMode::Interp);
}

TEST(ResumeEquality, StandaloneThreaded) {
  expectStandaloneResumeEquality(soak::ExecMode::Threaded);
}

TEST(ResumeEquality, ChipInterp) {
  expectChipResumeEquality(soak::ExecMode::Interp, /*WithFaults=*/false);
}

TEST(ResumeEquality, ChipThreaded) {
  expectChipResumeEquality(soak::ExecMode::Threaded, /*WithFaults=*/false);
}

TEST(ResumeEquality, ChipInterpWithFaultSchedule) {
  expectChipResumeEquality(soak::ExecMode::Interp, /*WithFaults=*/true);
}

TEST(ResumeEquality, ChipThreadedWithFaultSchedule) {
  expectChipResumeEquality(soak::ExecMode::Threaded, /*WithFaults=*/true);
}

//===----------------------------------------------------------------------===//
// Chip snapshot validation
//===----------------------------------------------------------------------===//

namespace {

/// Size of one serialized pending event: Time, Order, kind, ME,
/// context, operand.
constexpr size_t EventBytes = 8 + 8 + 1 + 4 + 4 + 8;

uint64_t getU64(const std::string &S, size_t Off) {
  BinReader R(S.data() + Off, 8);
  return R.u64();
}

void putU64(std::string &S, size_t Off, uint64_t V) {
  BinWriter W;
  W.u64(V);
  S.replace(Off, 8, W.bytes());
}

void putU32(std::string &S, size_t Off, uint32_t V) {
  BinWriter W;
  W.u32(V);
  S.replace(Off, 4, W.bytes());
}

/// Where the pending-event records sit in a chip soak's state section.
/// The chip state ends with a fixed-size tail (OrderCtr, LastTime and
/// the stats accumulators) right after the records, which follow their
/// u64 count; the count is the one that frames records consistent with
/// that tail.
struct EventSection {
  size_t First = 0; ///< offset of the first record
  uint64_t Count = 0;
  uint64_t OrderCtr = 0, LastTime = 0;
};

bool findEventSection(const std::string &State, unsigned Mes, unsigned Ctxs,
                      EventSection &Out) {
  size_t Tail = 8 * 5 + 8 * Mes + 8 * Mes * Ctxs + 4 + 8 + 8;
  if (State.size() < Tail + 8)
    return false;
  size_t End = State.size() - Tail;
  uint64_t OrderCtr = getU64(State, End), LastTime = getU64(State, End + 8);
  bool Found = false;
  for (uint64_t N = 1; EventBytes * N + 8 <= End; ++N) {
    size_t First = End - EventBytes * N;
    if (getU64(State, First - 8) != N)
      continue;
    bool Plausible = true;
    for (uint64_t I = 0; I != N && Plausible; ++I) {
      size_t Off = First + I * EventBytes;
      Plausible = getU64(State, Off) >= LastTime &&
                  getU64(State, Off + 8) <= OrderCtr &&
                  static_cast<uint8_t>(State[Off + 16]) < 8;
    }
    if (Plausible) {
      Out = {First, N, OrderCtr, LastTime};
      Found = true; // keep the largest consistent count
    }
  }
  return Found;
}

/// The newest snapshot in \p Dir (highest retired count).
ckpt::LoadedCheckpoint newestCheckpoint(const std::string &Dir) {
  ckpt::LoadedCheckpoint Best;
  DIR *D = opendir(Dir.c_str());
  EXPECT_NE(D, nullptr) << Dir;
  while (dirent *E = D ? readdir(D) : nullptr) {
    std::string N = E->d_name;
    if (N.find(".nova-ckpt") == std::string::npos)
      continue;
    ckpt::LoadedCheckpoint LC;
    if (ckpt::readCheckpoint(Dir + "/" + N, LC).ok() &&
        (Best.Path.empty() ||
         LC.Meta.PacketsRetired > Best.Meta.PacketsRetired))
      Best = std::move(LC);
  }
  if (D)
    closedir(D);
  return Best;
}

/// A 6-ME threaded chip soak under a fault schedule (so supervisor
/// ticks sit beyond the kernel's wheel), stopped at 1100 retired with a
/// snapshot taken once 1000 had retired.
struct ChipSnapshotFixture {
  TempDir D;
  soak::ChipSoakOptions Opts;
  soak::ChipSoakReport Ref;
  ckpt::LoadedCheckpoint Snap;
  EventSection Ev;

  ChipSnapshotFixture() {
    Opts.Base.Packets = 2000;
    Opts.Base.Seed = 42;
    Opts.Base.Exec = soak::ExecMode::Threaded;
    Opts.Base.OracleEvery = 50;
    Opts.Chip.Exec = chip::ExecModel::Threaded;
    std::string Error;
    EXPECT_TRUE(parseFaultSchedule("ctx-lockup@300,chan-brownout@500~4",
                                   Opts.Chip.Faults, Error))
        << Error;
    Ref = soak::runChipSoak(natHarness(), Opts);
    Opts.Base.Ckpt.Every = 500;
    Opts.Base.Ckpt.Dir = D.Path;
    Opts.Base.Ckpt.StopAfter = 1100;
    soak::ChipSoakReport Crashed = soak::runChipSoak(natHarness(), Opts);
    EXPECT_TRUE(Crashed.Base.Stopped);
    Opts.Base.Ckpt.StopAfter = 0;
    Opts.Base.Ckpt.Resume = true;
    Snap = newestCheckpoint(D.Path);
    EXPECT_GE(Snap.Meta.PacketsRetired, 1000u);
    EXPECT_TRUE(findEventSection(state(), Opts.Chip.MP.MeCount,
                                 Opts.Chip.MP.ContextsPerMe, Ev));
  }

  std::string state() const { return Snap.Payload.substr(Snap.StateOffset); }

  /// Rewrites the snapshot with \p State (fresh checksum) and resumes.
  soak::ChipSoakReport resumeWith(const std::string &State) {
    EXPECT_TRUE(ckpt::writeCheckpoint(D.Path, Snap.Meta, State).ok());
    return soak::runChipSoak(natHarness(), Opts);
  }
};

} // namespace

TEST(ChipSnapshot, ReversedEventRecordsResumeExactly) {
  // Snapshots list pending events in (time, order) order, but restore
  // must not depend on it: any permutation of the records is the same
  // queue.
  ChipSnapshotFixture F;
  ASSERT_GE(F.Ev.Count, 2u);
  std::string State = F.state();
  std::string Reversed = State;
  for (uint64_t I = 0; I != F.Ev.Count; ++I) {
    size_t From = F.Ev.First + (F.Ev.Count - 1 - I) * EventBytes;
    Reversed.replace(F.Ev.First + I * EventBytes, EventBytes,
                     State.substr(From, EventBytes));
  }
  ASSERT_NE(Reversed, State);
  soak::ChipSoakReport Resumed = F.resumeWith(Reversed);
  ASSERT_TRUE(Resumed.Base.CkptError.ok()) << Resumed.Base.CkptError.message();
  EXPECT_EQ(Resumed.Chip.TraceHash, F.Ref.Chip.TraceHash);
  EXPECT_EQ(Resumed.ImageHash, F.Ref.ImageHash);
  EXPECT_EQ(Resumed.Chip.Recovery.fold(), F.Ref.Chip.Recovery.fold());
  EXPECT_EQ(stableChipJson(F.Ref), stableChipJson(Resumed));
}

TEST(ChipSnapshot, OutOfRangeEventFieldsAreCorrupt) {
  // Checksum-valid payloads whose event records the chip cannot hold.
  // Each must fail resume with CheckpointCorrupt (novasoak exit 5), not
  // index out of range or pop events out of order.
  ChipSnapshotFixture F;
  ASSERT_GE(F.Ev.Count, 1u);
  size_t Rec = F.Ev.First;
  struct Mutation {
    const char *What;
    std::function<void(std::string &)> Apply;
  };
  const Mutation Ms[] = {
      {"ME index 200", [&](std::string &S) { putU32(S, Rec + 17, 200); }},
      {"context index 200", [&](std::string &S) { putU32(S, Rec + 21, 200); }},
      {"kind 9", [&](std::string &S) { S[Rec + 16] = 9; }},
      {"time before LastTime",
       [&](std::string &S) { putU64(S, Rec, F.Ev.LastTime - 1); }},
      {"order above OrderCtr",
       [&](std::string &S) { putU64(S, Rec + 8, F.Ev.OrderCtr + 1); }},
  };
  ASSERT_GT(F.Ev.LastTime, 0u);
  for (const Mutation &M : Ms) {
    SCOPED_TRACE(M.What);
    std::string State = F.state();
    M.Apply(State);
    soak::ChipSoakReport R = F.resumeWith(State);
    ASSERT_FALSE(R.Base.CkptError.ok());
    EXPECT_EQ(R.Base.CkptError.code(), StatusCode::CheckpointCorrupt);
    EXPECT_EQ(R.Chip.PacketsRetired, 0u); // nothing ran
  }
}

TEST(ResumeEquality, ResumeIntoFreshDirectoryIsTypedError) {
  soak::AppHarness &H = natHarness();
  TempDir D;
  soak::SoakOptions Opts;
  Opts.Packets = 100;
  Opts.Ckpt.Dir = D.Path;
  Opts.Ckpt.Resume = true;
  soak::SoakReport R = soak::runSoak(H, Opts);
  ASSERT_FALSE(R.CkptError.ok());
  EXPECT_EQ(R.CkptError.code(), StatusCode::CheckpointCorrupt);
  EXPECT_EQ(R.Stats.Packets, 0u); // nothing ran
}
