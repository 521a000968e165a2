//===- Chip.cpp - Whole-chip discrete-event simulation --------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Event-driven kernel. Everything runs on one OS thread off one event
// queue popped in (time, insertion order) order, so a run is a
// deterministic function of (params, programs, base memory, packet
// stream). The queue is an exact cycle-bucketed calendar queue
// (EventQueue below); snapshots store its events sorted. The moving
// parts:
//
//   RX agent      pulls packets from the source, allocates an SDRAM slot,
//                 scrubs it, rebases pointer args into it, DMAs the packet
//                 image (SDRAM issue slots), and pushes a descriptor into
//                 the target ME's input ring (round-robin by sequence).
//   HwCtx         one hardware context: pops a descriptor (scratch txn),
//                 executes via sim::AllocContext — the ME swaps it out at
//                 every memory reference and serves its ready queue FIFO —
//                 then pushes the completion into the shared TX ring.
//   TX agent      drains the TX ring (scratch txns), reorders completions
//                 into arrival order, retires them, and frees slots.
//
// Blocking discipline: rings change state at event time; the issuer pays
// the scratch transaction afterward. A parked party (consumer on empty
// ring, producer on full ring, RX on slots or full rings) is woken by
// scheduling a retry event that re-checks — wakeups can be consumed by a
// faster party, but every state change wakes someone, so nothing is
// lost. Hostile packets whose pointers cannot be rebased into a slot
// run quarantined on a private copy of the pristine base image, so they
// contend for time but are data-isolated and never serialize the chip.
//
//===----------------------------------------------------------------------===//

#include "chip/Chip.h"

#include "fastpath/Segment.h"
#include "sim/ExecContext.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <set>

using namespace nova;
using namespace nova::chip;

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

static Status configError(std::string Msg) {
  return Status::error(StatusCode::InvalidArgument, Phase::Driver,
                       std::move(Msg));
}

Status ChipParams::validate() const {
  if (MP.MeCount < 1 || MP.MeCount > 8)
    return configError(
        formatf("me-count %u out of range 1..8", MP.MeCount));
  if (MP.ContextsPerMe < 1 || MP.ContextsPerMe > 8)
    return configError(
        formatf("contexts %u out of range 1..8", MP.ContextsPerMe));
  if (RingDepth < 1 || RingDepth > 64)
    return configError(
        formatf("ring-depth %u out of range 1..64", RingDepth));
  if (Budget == 0)
    return configError("per-packet budget must be positive");
  if (SlotStride < (1u << 16))
    return configError(
        formatf("slot stride 0x%x below minimum 0x10000", SlotStride));
  if (!(MP.ClockHz > 0))
    return configError("clock must be positive");
  for (const FaultScheduleEntry &E : Faults) {
    if (faultKindDomain(E.Kind) != FaultDomain::Chip)
      return configError(
          formatf("fault kind '%s' is not chip-domain", faultKindName(E.Kind)));
    if (E.Rate < 1)
      return configError(
          formatf("fault rate for '%s' must be >= 1", faultKindName(E.Kind)));
  }
  if (!Faults.empty() &&
      (Sup.WatchdogPeriod == 0 || Sup.LockupThreshold == 0 ||
       Sup.BackoffBase == 0 || Sup.BackpressureThreshold == 0 ||
       Sup.BrownoutWindow == 0))
    return configError("supervisor thresholds must be positive");
  return Status();
}

Status chip::validateChipSetup(const ChipParams &P,
                               const alloc::AllocatedProgram &Prog,
                               const sim::MemLimits &Limits) {
  if (Status S = P.validate(); !S.ok())
    return S;
  if (P.SlotStride > Limits.SdramWords)
    return configError(
        formatf("slot stride 0x%x exceeds SDRAM limit 0x%x", P.SlotStride,
                Limits.SdramWords));
  // Each hardware context gets a private copy of the program's spill
  // window in shared scratch; all of them must fit under the limit.
  uint64_t Step = std::max<uint64_t>(64, Prog.NumSpillSlots);
  uint64_t Total = P.MP.totalContexts();
  uint64_t End = Prog.SpillBase + (Total - 1) * Step + Prog.NumSpillSlots;
  if (End > Limits.ScratchWords)
    return configError(
        formatf("%llu spill windows of %llu words from 0x%x overflow the "
                "scratch limit 0x%x",
                (unsigned long long)Total, (unsigned long long)Step,
                Prog.SpillBase, Limits.ScratchWords));
  return Status();
}

//===----------------------------------------------------------------------===//
// Impl state
//===----------------------------------------------------------------------===//

namespace {

/// A memory channel: finite issue bandwidth (one transaction accepted
/// every IssueInterval cycles), pipelined latency. Queue delay beyond
/// the caller's issue time is recorded as contention stall.
struct Channel {
  unsigned IssueInterval = 1;
  unsigned Latency = 1;
  uint64_t FreeAt = 0;
  ChannelStats St;

  /// Full transaction: returns data-completion time.
  uint64_t submit(uint64_t Now) {
    uint64_t Start = std::max(Now, FreeAt);
    St.StallCycles += Start - Now;
    ++St.Transactions;
    FreeAt = Start + IssueInterval;
    return Start + Latency;
  }

  /// Issue-slot-only transaction (RX DMA streaming: the FIFO engine does
  /// not wait for data return). Returns when the channel accepted it.
  uint64_t submitIssueOnly(uint64_t Now) {
    uint64_t Start = std::max(Now, FreeAt);
    St.StallCycles += Start - Now;
    ++St.Transactions;
    FreeAt = Start + IssueInterval;
    return FreeAt;
  }
};

enum class Ev : uint8_t {
  MeRun,
  CtxResume,
  RxStep,
  TxPopDone,
  SupTick,     ///< supervisor watchdog scan + RX backpressure check
  CtxRestart,  ///< backoff expired: restore packet state, requeue
  BrownoutEnd, ///< SDRAM issue bandwidth recovers
  RingUnstall  ///< a ring-stall window ended; wake parked producers
};
constexpr unsigned NumEvKinds = static_cast<unsigned>(Ev::RingUnstall) + 1;
static_assert(NumEvKinds == KernelStats::NumKinds, "one counter per kind");

/// Kinds whose payload is a 64-bit word (RX generation, TX sequence)
/// rather than an (ME, context) pair.
constexpr bool carriesWord(Ev K) {
  return K == Ev::RxStep || K == Ev::TxPopDone;
}

/// One pending event in 24 bytes. The kind and its operands share one
/// word: bits 0-2 hold the kind; a word-carrying kind keeps its operand
/// in bits 3-63 (an RX generation or packet sequence number, far below
/// 2^61 in any run), every other kind its ME (bits 3-6; a ring id may be
/// MeCount) and context (bits 7-9).
struct Event {
  uint64_t Time = 0;
  uint64_t Order = 0; ///< insertion order: total determinism on time ties
  uint64_t Bits = 0;

  static constexpr uint64_t WordLimit = 1ull << 61;

  static Event make(uint64_t Time, uint64_t Order, Ev K, unsigned Me,
                    unsigned Ctx, uint64_t A) {
    uint64_t Ops = carriesWord(K) ? A << 3
                                  : uint64_t(Me) << 3 | uint64_t(Ctx) << 7;
    return {Time, Order, Ops | static_cast<uint64_t>(K)};
  }
  Ev kind() const { return static_cast<Ev>(Bits & 7); }
  unsigned me() const { return carriesWord(kind()) ? 0 : (Bits >> 3) & 15; }
  unsigned ctx() const { return carriesWord(kind()) ? 0 : (Bits >> 7) & 7; }
  uint64_t word() const { return carriesWord(kind()) ? Bits >> 3 : 0; }
};
static_assert(sizeof(Event) == 24, "Event must stay packed");

struct EventAfter {
  bool operator()(const Event &X, const Event &Y) const {
    if (X.Time != Y.Time)
      return X.Time > Y.Time;
    return X.Order > Y.Order;
  }
};

/// The chip's pending events, popped in (Time, Order) order: an exact
/// calendar queue (R. Brown, CACM 1988) with one bucket per cycle.
///
/// Events less than WheelSize cycles ahead of the last pop go to the
/// bucket of their cycle on a power-of-two wheel; a two-level bitmap
/// finds the next non-empty bucket in O(1). Later events wait in a small
/// binary heap. The order is exact with no tie-break reasoning: Order is
/// a global push counter and nothing is scheduled before the current
/// time, so appending keeps every bucket in Order order, and every wheel
/// event lies in [Now, Now + WheelSize) so one bucket holds one cycle.
/// pop() takes the earlier of the first bucket's head and the heap's top
/// by (Time, Order); an event that entered the heap before its cycle
/// came within reach has the lower Order of any tie.
class EventQueue {
  static constexpr unsigned WheelBits = 12;
  static constexpr uint32_t WheelSize = 1u << WheelBits; ///< cycles
  static constexpr uint32_t WheelMask = WheelSize - 1;
  static constexpr uint32_t None = ~0u;
  static_assert(WheelSize == 64 * 64, "one summary word covers the wheel");

  /// Bucket FIFOs are singly linked lists threaded through one node
  /// pool, so the footprint is the wheel plus the peak pending count.
  struct Node {
    Event E;
    uint32_t Next;
  };
  struct Bucket {
    uint32_t Head = None, Tail = None;
  };

public:
  bool empty() const { return Size == 0; }
  size_t size() const { return Size; }

  void push(const Event &E) {
    assert(E.Time >= Now && "event scheduled in the past");
    ++Size;
    if (E.Time - Now >= WheelSize) {
      Far.push_back(E);
      std::push_heap(Far.begin(), Far.end(), EventAfter());
      return;
    }
    uint32_t N = FreeHead;
    if (N != None) {
      FreeHead = Pool[N].Next;
      Pool[N] = {E, None};
    } else {
      N = static_cast<uint32_t>(Pool.size());
      Pool.push_back({E, None});
    }
    uint32_t B = static_cast<uint32_t>(E.Time) & WheelMask;
    Bucket &Bk = Wheel[B];
    if (Bk.Head == None) {
      Bk.Head = N;
      Occupied[B >> 6] |= 1ull << (B & 63);
      Summary |= 1ull << (B >> 6);
    } else {
      Pool[Bk.Tail].Next = N;
    }
    Bk.Tail = N;
  }

  Event pop() {
    assert(Size && "pop from an empty event queue");
    --Size;
    uint32_t B = Summary ? firstBucket() : None;
    if (B == None ||
        (!Far.empty() && EventAfter()(Pool[Wheel[B].Head].E, Far.front()))) {
      std::pop_heap(Far.begin(), Far.end(), EventAfter());
      Event E = Far.back();
      Far.pop_back();
      Now = E.Time;
      return E;
    }
    Bucket &Bk = Wheel[B];
    uint32_t N = Bk.Head;
    Event E = Pool[N].E;
    Bk.Head = Pool[N].Next;
    if (Bk.Head == None) {
      Bk.Tail = None;
      uint64_t &W = Occupied[B >> 6];
      W &= ~(1ull << (B & 63));
      if (!W)
        Summary &= ~(1ull << (B >> 6));
    }
    Pool[N].Next = FreeHead;
    FreeHead = N;
    Now = E.Time;
    return E;
  }

  /// Every pending event in pop order (checkpoint save).
  std::vector<Event> sorted() const {
    std::vector<Event> Out(Far);
    for (const Bucket &Bk : Wheel)
      for (uint32_t N = Bk.Head; N != None; N = Pool[N].Next)
        Out.push_back(Pool[N].E);
    std::sort(Out.begin(), Out.end(), before);
    return Out;
  }

  /// Replaces the contents with \p Evs at current time \p T (checkpoint
  /// restore). Every event must be at or after \p T; any order is
  /// accepted, since the events are sorted before they are queued.
  void assign(std::vector<Event> Evs, uint64_t T) {
    *this = EventQueue();
    Now = T;
    std::sort(Evs.begin(), Evs.end(), before);
    for (const Event &E : Evs)
      push(E);
  }

private:
  static bool before(const Event &X, const Event &Y) {
    return EventAfter()(Y, X);
  }

  /// The non-empty bucket whose cycle comes first, scanning the wheel
  /// circularly from Now's bucket. Requires Summary != 0.
  uint32_t firstBucket() const {
    uint32_t P = static_cast<uint32_t>(Now) & WheelMask;
    uint32_t WI = P >> 6;
    if (uint64_t Bits = Occupied[WI] & (~0ull << (P & 63)))
      return WI << 6 | static_cast<uint32_t>(__builtin_ctzll(Bits));
    uint64_t Later = WI == 63 ? 0 : Summary & (~0ull << (WI + 1));
    // Nothing later in this lap: wrap around to the lowest word (which
    // may be WI itself, holding only buckets below P).
    uint32_t W =
        static_cast<uint32_t>(__builtin_ctzll(Later ? Later : Summary));
    return W << 6 | static_cast<uint32_t>(__builtin_ctzll(Occupied[W]));
  }

  Bucket Wheel[WheelSize];
  uint64_t Occupied[WheelSize / 64] = {};
  uint64_t Summary = 0; ///< bit w: Occupied[w] != 0
  std::vector<Node> Pool;
  uint32_t FreeHead = None;
  std::vector<Event> Far; ///< min-heap under EventAfter
  uint64_t Now = 0;       ///< time of the last pop
  size_t Size = 0;
};

/// Where a context is in its packet loop (each context has at most one
/// outstanding event, so the phase disambiguates CtxResume).
enum class CtxPh : uint8_t {
  ParkedRing, ///< waiting for its ME's input ring to become nonempty
  PopWait,    ///< input-ring pop scratch transaction in flight
  StartReady, ///< in the ME ready queue, packet not yet started
  RunReady,   ///< in the ME ready queue mid-packet
  MemWait,    ///< swapped out on a memory reference
  PushWait,   ///< TX-ring push scratch transaction in flight
  ParkedTx,   ///< waiting for TX-ring space
  RetryPop,   ///< woken to re-attempt an input-ring pop
  RetryPush,  ///< woken to re-attempt a TX-ring push
  Wedged,     ///< ctx-lockup: the memory completion was lost; only the
              ///< supervisor watchdog can move the context again
  RestartWait ///< aborted by the supervisor; CtxRestart pending (backoff)
};

struct InFlightRec {
  ChipPacket Pkt;
  std::vector<uint32_t> RebasedArgs;
  sim::RunResult Result;
  unsigned Me = 0, Ctx = 0;
  bool Tail = false;
  uint32_t SlotIdx = 0;
  uint32_t SlotBase = 0;
  uint64_t DispatchTime = 0;
  uint64_t CompleteTime = 0;
  /// Quarantine image for a tail packet: a private copy of the pristine
  /// base memory. Null for slotted packets (they run on shared memory).
  std::unique_ptr<sim::Memory> PrivMem;
  // Fault-injection state (all inert when no schedule is armed).
  unsigned Attempts = 1;        ///< execution attempts started
  unsigned PlannedLockups = 0;  ///< attempts fated to wedge
  bool SdramFlip = false;       ///< corrupt one slot word after DMA
  bool Wedged = false;          ///< wedged at least once
  DropReason Drop = DropReason::None;
};

/// One hardware context: either a resumable interpreter or a resumable
/// fast-path segment executor, behind the same yield contract. Which one
/// is live is a chip-wide choice (ChipParams::Exec), so a plain bool
/// dispatch keeps the event handlers identical for both models.
struct HwCtx {
  sim::AllocContext Exec;
  fastpath::SegmentContext Seg;
  bool Threaded = false;
  CtxPh Ph = CtxPh::ParkedRing;
  uint64_t CurSeq = 0;
  uint64_t WedgeTime = 0; ///< when the lost completion was issued
  /// InFlight[CurSeq], cached when the context pops the packet's
  /// descriptor (std::map nodes stay put until TX pop erases them).
  /// Live in every phase from PopWait through RestartWait that reaches
  /// the ME; stale once the packet is on the TX ring.
  InFlightRec *Rec = nullptr;

  void reset(const std::vector<uint32_t> &Args) {
    Threaded ? Seg.reset(Args) : Exec.reset(Args);
  }
  void abort() { Threaded ? Seg.abort() : Exec.abort(); }
  bool done() const { return Threaded ? Seg.done() : Exec.done(); }
  sim::AllocContext::Yield resume(sim::Memory &Mem,
                                  const sim::RunOptions &Opts) {
    return Threaded ? Seg.resume(Mem, Opts) : Exec.resume(Mem, Opts);
  }
  void charge(uint64_t Cycles) {
    Threaded ? Seg.charge(Cycles) : Exec.charge(Cycles);
  }
  sim::RunResult takeResult() {
    return Threaded ? Seg.takeResult() : Exec.takeResult();
  }
};

struct MeState {
  uint64_t FreeAt = 0;
  uint64_t Busy = 0;
  std::deque<unsigned> Ready;
  std::vector<HwCtx> Ctx;
};

enum class RxPh : uint8_t { Dispatch, Push };
enum class RxWait : uint8_t { None, Slot, RingFull };

//===----------------------------------------------------------------------===//
// Checkpoint serialization helpers
//===----------------------------------------------------------------------===//

void saveChannel(BinWriter &W, const Channel &C) {
  W.u32(C.IssueInterval);
  W.u32(C.Latency);
  W.u64(C.FreeAt);
  W.u64(C.St.Transactions);
  W.u64(C.St.StallCycles);
}

void restoreChannel(BinReader &R, Channel &C) {
  C.IssueInterval = R.u32();
  C.Latency = R.u32();
  C.FreeAt = R.u64();
  C.St.Transactions = R.u64();
  C.St.StallCycles = R.u64();
}

void savePacket(BinWriter &W, const ChipPacket &Pk) {
  W.u64(Pk.Seq);
  W.vec32(Pk.Words);
  W.vec32(Pk.Args);
  W.u32(Pk.PtrArgMask);
  W.u32(Pk.PayloadBytes);
  W.u8(Pk.ClassTag);
  W.u64(Pk.SeedTag);
}

void restorePacket(BinReader &R, ChipPacket &Pk) {
  Pk.Seq = R.u64();
  Pk.Words = R.vec32();
  Pk.Args = R.vec32();
  Pk.PtrArgMask = R.u32();
  Pk.PayloadBytes = R.u32();
  Pk.ClassTag = R.u8();
  Pk.SeedTag = R.u64();
}

void saveRec(BinWriter &W, const InFlightRec &Rec) {
  savePacket(W, Rec.Pkt);
  W.vec32(Rec.RebasedArgs);
  Rec.Result.saveState(W);
  W.u32(Rec.Me);
  W.u32(Rec.Ctx);
  W.b(Rec.Tail);
  W.u32(Rec.SlotIdx);
  W.u32(Rec.SlotBase);
  W.u64(Rec.DispatchTime);
  W.u64(Rec.CompleteTime);
  W.b(Rec.PrivMem != nullptr);
  if (Rec.PrivMem)
    Rec.PrivMem->saveState(W);
  W.u32(Rec.Attempts);
  W.u32(Rec.PlannedLockups);
  W.b(Rec.SdramFlip);
  W.b(Rec.Wedged);
  W.u8(static_cast<uint8_t>(Rec.Drop));
}

void restoreRec(BinReader &R, InFlightRec &Rec) {
  restorePacket(R, Rec.Pkt);
  Rec.RebasedArgs = R.vec32();
  Rec.Result.restoreState(R);
  Rec.Me = R.u32();
  Rec.Ctx = R.u32();
  Rec.Tail = R.b();
  Rec.SlotIdx = R.u32();
  Rec.SlotBase = R.u32();
  Rec.DispatchTime = R.u64();
  Rec.CompleteTime = R.u64();
  if (R.b()) {
    Rec.PrivMem = std::make_unique<sim::Memory>();
    Rec.PrivMem->restoreState(R);
  } else {
    Rec.PrivMem.reset();
  }
  Rec.Attempts = R.u32();
  Rec.PlannedLockups = R.u32();
  Rec.SdramFlip = R.b();
  Rec.Wedged = R.b();
  Rec.Drop = static_cast<DropReason>(R.u8());
}

void saveRecMap(BinWriter &W, const std::map<uint64_t, InFlightRec> &M) {
  W.u64(M.size());
  for (const auto &[Seq, Rec] : M) {
    W.u64(Seq);
    saveRec(W, Rec);
  }
}

void restoreRecMap(BinReader &R, std::map<uint64_t, InFlightRec> &M) {
  M.clear();
  uint64_t N = R.u64();
  for (uint64_t I = 0; I != N && !R.failed(); ++I) {
    uint64_t Seq = R.u64();
    InFlightRec Rec;
    restoreRec(R, Rec);
    M.emplace(Seq, std::move(Rec));
  }
}

} // namespace

struct Chip::Impl {
  ChipParams P;
  std::vector<const alloc::AllocatedProgram *> Progs;
  /// Threaded mode: each unique program translated once, shared by every
  /// context that runs it (the map keeps addresses stable).
  std::map<const alloc::AllocatedProgram *, fastpath::Translated> Trans;
  sim::Memory Mem;
  /// Pristine copy of the base image; quarantined tail packets run on a
  /// private copy of this (never of the live, packet-dirtied Mem).
  sim::Memory BaseImage;
  sim::RunOptions Opts;

  Channel SramCh, SdramCh, ScratchCh;
  std::vector<MeState> Mes;
  std::vector<Ring> In;                         ///< per-ME input ring
  std::vector<std::deque<unsigned>> Consumers;  ///< per-ME parked contexts
  Ring Tx;
  bool TxIdle = true;
  std::deque<std::pair<unsigned, unsigned>> TxProducers;

  std::map<uint64_t, InFlightRec> InFlight;
  std::map<uint64_t, InFlightRec> Reorder;
  uint64_t NextRetire = 0;
  uint64_t NextDispatch = 0;
  std::set<uint32_t> FreeSlots;
  uint64_t InFlightCount = 0;

  // RX agent
  RxPh RxPhase = RxPh::Dispatch;
  RxWait RxWaiting = RxWait::None;
  bool RxDone = false, RxHave = false;
  bool RxPktTail = false;
  ChipPacket RxPkt;
  uint64_t RxPendSeq = 0;
  unsigned RxTarget = 0;
  uint64_t RxGen = 0;

  // Fault model + recovery policy (inert when the schedule is empty).
  Supervisor Sup;
  uint32_t SpillStep = 64;       ///< per-context spill window stride
  unsigned SdramBaseInterval = 1; ///< pristine issue interval (brownouts)
  bool BrownoutActive = false;
  bool RxStuck = false;          ///< parked on uniformly-full rings
  uint64_t RxStuckSince = 0;

  EventQueue Q;
  uint64_t OrderCtr = 0;
  uint64_t LastTime = 0;
  bool Ran = false;

  const Source *Src = nullptr;
  const RetireFn *Retire = nullptr;

  // Checkpoint plumbing: the retire hook fires between events whenever
  // PacketsRetired advanced; Restored makes runAll continue a restored
  // event stream instead of scheduling the initial RX/supervisor events.
  RetireHook Hook;
  uint64_t LastHookRetired = 0;
  bool Restored = false;
  bool Stopped = false;

  ChipRunStats St;
  uint64_t RetireFold = 0xcbf29ce484222325ull;

  Impl(const ChipParams &Params,
       std::vector<const alloc::AllocatedProgram *> Programs,
       sim::Memory Base)
      : P(Params), Progs(std::move(Programs)), Mem(std::move(Base)),
        BaseImage(Mem), Tx(Params.RingDepth) {
    assert(P.validate().ok() && "invalid ChipParams (see validateChipSetup)");
    assert(Progs.size() == P.MP.MeCount && "one program per processing ME");
    Opts.Lat = P.latency();
    Opts.MaxInstructions = P.Budget;

    SramCh = {P.MP.SramIssueInterval, P.MP.SramAccessCycles, 0, {}};
    SdramCh = {P.MP.SdramIssueInterval, P.MP.SdramAccessCycles, 0, {}};
    ScratchCh = {P.MP.ScratchIssueInterval, P.MP.ScratchAccessCycles, 0, {}};

    Sup = Supervisor(P.Faults, P.Sup);
    SdramBaseInterval = P.MP.SdramIssueInterval;

    // Every context gets a disjoint spill window; one step for the whole
    // chip keeps the geometry independent of which ME runs which program.
    uint32_t Step = 64;
    for (const alloc::AllocatedProgram *Pr : Progs)
      Step = std::max<uint32_t>(Step, Pr->NumSpillSlots);
    SpillStep = Step;

    if (P.Exec == ExecModel::Threaded)
      for (const alloc::AllocatedProgram *Pr : Progs)
        if (!Trans.count(Pr))
          Trans.emplace(Pr, fastpath::translate(*Pr, Opts.Lat));

    Mes.resize(P.MP.MeCount);
    Consumers.resize(P.MP.MeCount);
    for (unsigned M = 0; M != P.MP.MeCount; ++M) {
      In.emplace_back(P.RingDepth);
      Mes[M].Ctx.resize(P.MP.ContextsPerMe);
      for (unsigned C = 0; C != P.MP.ContextsPerMe; ++C) {
        HwCtx &Cx = Mes[M].Ctx[C];
        uint32_t Rebase = (M * P.MP.ContextsPerMe + C) * Step;
        if (P.Exec == ExecModel::Threaded) {
          Cx.Threaded = true;
          Cx.Seg.setProgram(&Trans.at(Progs[M]));
          Cx.Seg.setSpillRebase(Rebase);
        } else {
          Cx.Exec.setProgram(Progs[M]);
          Cx.Exec.setSpillRebase(Rebase);
        }
        Consumers[M].push_back(C); // all contexts start parked, in order
      }
    }

    // In-flight slots: the window of packets that can be in the chip at
    // once. Slots recycle at TX pop, so the pool needs to cover the
    // contexts plus the queued descriptors, with headroom for completed
    // packets waiting in the reorder buffer behind a slow head.
    uint32_t ByMem = Mem.Limits.SdramWords / P.SlotStride;
    uint32_t Wanted =
        4 * P.MP.MeCount * (P.MP.ContextsPerMe + P.RingDepth) + 64;
    uint32_t NumSlots = std::max(1u, std::min(ByMem, Wanted));
    for (uint32_t S = 0; S != NumSlots; ++S)
      FreeSlots.insert(S);

    St.MeBusyCycles.assign(P.MP.MeCount, 0);
    St.CtxPackets.assign(P.MP.MeCount,
                         std::vector<uint64_t>(P.MP.ContextsPerMe, 0));
  }

  void sched(uint64_t T, Ev K, unsigned Me = 0, unsigned Ctx = 0,
             uint64_t A = 0) {
    assert(A < Event::WordLimit && "event operand overflows its 61 bits");
    Q.push(Event::make(T, ++OrderCtr, K, Me, Ctx, A));
    ++St.Kernel.Pushes;
    St.Kernel.PeakPending = std::max<uint64_t>(St.Kernel.PeakPending, Q.size());
  }

  Channel &chan(MemSpace S) {
    switch (S) {
    case MemSpace::Sram:    return SramCh;
    case MemSpace::Sdram:   return SdramCh;
    case MemSpace::Scratch: return ScratchCh;
    }
    assert(false && "invalid MemSpace reached the channel model");
    return SramCh;
  }

  void scrubSdram(uint32_t Lo, uint64_t Hi) { Mem.Sdram.eraseRange(Lo, Hi); }

  //===--- RX agent --------------------------------------------------------===//

  void schedRx(uint64_t T) { sched(T, Ev::RxStep, 0, 0, ++RxGen); }

  bool pktNeedsTail(const ChipPacket &Pk) const {
    for (unsigned I = 0; I != Pk.Args.size() && I < 32; ++I)
      if ((Pk.PtrArgMask >> I) & 1 && Pk.Args[I] >= P.SlotStride)
        return true;
    return false;
  }

  void rxStep(uint64_t T, uint64_t Gen) {
    if (Gen != RxGen || RxDone)
      return; // stale wakeup
    if (RxPhase == RxPh::Dispatch)
      rxDispatch(T);
    else
      rxPush(T);
  }

  void rxDispatch(uint64_t T) {
    if (!RxHave) {
      ChipPacket Pk;
      if (!(*Src)(Pk)) {
        RxDone = true;
        return;
      }
      assert(Pk.Seq == NextDispatch && "packet Seq must be 0,1,2,...");
      ++NextDispatch;
      RxPkt = std::move(Pk);
      RxHave = true;
      RxPktTail = pktNeedsTail(RxPkt);
    }
    InFlightRec Rec;
    if (RxPktTail) {
      // Quarantine: pointers we cannot rebase run at their original
      // addresses on a private copy of the pristine base image. The
      // packet contends for channels and contexts like any other but is
      // data-isolated by construction, so it neither drains the chip
      // nor consumes an SDRAM slot.
      Rec.Tail = true;
      Rec.SlotIdx = 0;
      Rec.SlotBase = 0;
      Rec.PrivMem = std::make_unique<sim::Memory>(BaseImage);
      Rec.RebasedArgs = RxPkt.Args;
      ++St.TailPackets;
    } else {
      if (FreeSlots.empty()) {
        RxWaiting = RxWait::Slot;
        return;
      }
      Rec.SlotIdx = *FreeSlots.begin();
      FreeSlots.erase(FreeSlots.begin());
      Rec.SlotBase = Rec.SlotIdx * P.SlotStride;
      scrubSdram(Rec.SlotBase, uint64_t(Rec.SlotBase) + P.SlotStride);
      Rec.RebasedArgs = RxPkt.Args;
      for (unsigned I = 0; I != Rec.RebasedArgs.size() && I < 32; ++I)
        if ((RxPkt.PtrArgMask >> I) & 1)
          Rec.RebasedArgs[I] += Rec.SlotBase;
    }

    Rec.DispatchTime = T;
    RxPendSeq = RxPkt.Seq;
    Rec.Pkt = std::move(RxPkt);

    // Per-packet fault plan: pure in Seq, so a divergence replayed
    // standalone sees the same corruption.
    bool DmaLost = false;
    if (Sup.enabled()) {
      Supervisor::PacketPlan Plan = Sup.planPacket(Rec.Pkt.Seq);
      Rec.PlannedLockups = Plan.LockupAttempts;
      Rec.SdramFlip = Plan.SdramFlip;
      DmaLost = !rxDma(Rec, T, Plan.DmaFailures);
    } else {
      (void)rxDma(Rec, T, 0);
    }
    uint64_t Td = RxDmaEnd;

    if (DmaLost) {
      // The packet image never made it into memory: a typed ingress
      // drop, retired in arrival order like every other packet.
      if (!Rec.Tail)
        FreeSlots.insert(Rec.SlotIdx);
      Rec.PrivMem.reset();
      Rec.Drop = DropReason::DmaDrop;
      Rec.Result = sim::RunResult();
      Rec.Result.Ok = false;
      Rec.CompleteTime = Td;
      ++St.PacketsDispatched;
      ++Sup.stats().DmaDropPackets;
      Reorder.emplace(Rec.Pkt.Seq, std::move(Rec));
      St.ReorderHighWater = std::max(
          St.ReorderHighWater, static_cast<unsigned>(Reorder.size()));
      drainReorder(Td);
      RxHave = false;
      RxPhase = RxPh::Dispatch;
      schedRx(Td);
      return;
    }

    InFlight.emplace(RxPendSeq, std::move(Rec));
    ++InFlightCount;
    ++St.PacketsDispatched;

    RxPhase = RxPh::Push;
    schedRx(Td);
  }

  /// One DMA burst set's issue-slot cost (the FIFO engine streams — no
  /// latency wait — but contends for SDRAM issue bandwidth).
  uint64_t chargeDmaBursts(size_t NumWords, uint64_t T) {
    unsigned Bursts = (static_cast<unsigned>(NumWords) + 7) / 8;
    uint64_t Td = T;
    for (unsigned I = 0; I != Bursts; ++I)
      Td = SdramCh.submitIssueOnly(Td);
    St.RxDmaTransactions += Bursts;
    return Td;
  }

  /// DMA completion time of the last rxDma/restart transfer.
  uint64_t RxDmaEnd = 0;

  /// DMAs the packet image into its slot (or private image), surviving
  /// \p Failures silently-lost attempts via the RX engine's completion
  /// count check: each lost burst set is re-issued, up to DmaRetryLimit
  /// redos. Returns false when the image is lost for good. Applies the
  /// packet's planned SdramBitFlip after a successful transfer (the
  /// corruption happens on the wire, every time the data moves).
  bool rxDma(InFlightRec &Rec, uint64_t T, unsigned Failures) {
    uint64_t Td = T;
    RxDmaEnd = T;
    if (Rec.Pkt.Words.empty() || Rec.RebasedArgs.empty())
      return true; // nothing to transfer; nothing can be lost
    RecoveryStats &RS = Sup.stats();
    if (Failures) {
      ++RS.DmaFaultPackets;
      RS.DmaFaultsInjected += Failures;
    }
    unsigned MaxAttempts = Sup.config().DmaRetryLimit + 1;
    for (unsigned A = 1; A <= Failures; ++A) {
      // Lost in flight: the engine streamed the burst set (issue slots
      // burned) but the data vanished; the completion check notices.
      Td = chargeDmaBursts(Rec.Pkt.Words.size(), Td);
      if (A == MaxAttempts) {
        RxDmaEnd = Td;
        return false;
      }
      ++RS.DmaRetries;
    }
    Td = chargeDmaBursts(Rec.Pkt.Words.size(), Td);
    sim::Memory &DM = Rec.PrivMem ? *Rec.PrivMem : Mem;
    uint32_t Base = Rec.RebasedArgs[0];
    for (uint32_t I = 0; I != Rec.Pkt.Words.size(); ++I)
      DM.Sdram[Base + I] = Rec.Pkt.Words[I]; // mirrors apps::storePacket
    if (Rec.SdramFlip) {
      uint32_t NumWords = static_cast<uint32_t>(Rec.Pkt.Words.size());
      uint32_t W = Supervisor::flipWordIndex(Rec.Pkt.Seq, NumWords);
      uint32_t B = Supervisor::flipBit(Rec.Pkt.Seq);
      DM.Sdram[Base + W] = Rec.Pkt.Words[W] ^ (1u << B);
      ++RS.SdramBitFlipsInjected;
    }
    if (Failures)
      ++RS.DmaRecoveredPackets;
    RxDmaEnd = Td;
    return true;
  }

  void rxPush(uint64_t T) {
    // Least-occupied input ring wins, scanning from the packet's natural
    // round-robin position so ties rotate across engines. Picking at
    // push time (not dispatch) and by load (not sequence) keeps one slow
    // engine's full ring from head-of-line-blocking the whole RX stage.
    // A stalled ring (injected NAK window) counts as full in the scan.
    auto EffSize = [&](unsigned M) {
      return In[M].stalled(T) ? In[M].capacity() : In[M].size();
    };
    RxTarget = static_cast<unsigned>(RxPendSeq % P.MP.MeCount);
    for (unsigned I = 1; I != P.MP.MeCount; ++I) {
      unsigned M =
          static_cast<unsigned>((RxPendSeq + I) % P.MP.MeCount);
      if (EffSize(M) < EffSize(RxTarget))
        RxTarget = M;
    }
    Ring &Rg = In[RxTarget];
    maybeStallRing(Rg, RxTarget, T);
    if (Rg.full() || Rg.stalled(T)) {
      // least-occupied is full => every ring is full (or NAKing)
      RxWaiting = RxWait::RingFull;
      if (!RxStuck) {
        RxStuck = true;
        RxStuckSince = T;
      }
      return;
    }
    Rg.push(RxPendSeq, T);
    RxStuck = false;
    wakeOneConsumer(RxTarget, T);
    uint64_t Tc = ScratchCh.submit(T);
    RxHave = false;
    RxPhase = RxPh::Dispatch;
    schedRx(Tc);
  }

  /// Counts one push attempt against the ring-stall schedule; when it
  /// fires, ring \p Id (MeCount = the TX ring) NAKs pushes for the
  /// injected window and a wake is scheduled at the stall end.
  void maybeStallRing(Ring &Rg, unsigned Id, uint64_t T) {
    if (!Sup.enabled())
      return;
    uint64_t Cycles = Sup.ringStallCycles();
    if (!Cycles)
      return;
    Rg.stallUntil(T + Cycles);
    RecoveryStats &RS = Sup.stats();
    ++RS.RingStallsInjected;
    RS.RingStallCycles += Cycles;
    sched(Rg.stallEnd(), Ev::RingUnstall, Id);
  }

  void wakeRxIfSlotFreed(uint64_t T) {
    if (RxWaiting == RxWait::Slot && !FreeSlots.empty()) {
      RxWaiting = RxWait::None;
      schedRx(T);
    }
  }

  void wakeRxIfRingFreed(unsigned Me, uint64_t T) {
    // RX only parks on RingFull when every ring is full, so any pop is a
    // valid wake; the retry re-picks the least-occupied target.
    (void)Me;
    if (RxWaiting == RxWait::RingFull) {
      RxWaiting = RxWait::None;
      schedRx(T);
    }
  }

  //===--- Context packet loop ----------------------------------------------===//

  void wakeOneConsumer(unsigned Me, uint64_t T) {
    if (Consumers[Me].empty())
      return;
    unsigned C = Consumers[Me].front();
    Consumers[Me].pop_front();
    Mes[Me].Ctx[C].Ph = CtxPh::RetryPop;
    sched(T, Ev::CtxResume, Me, C);
  }

  void wantPop(unsigned Me, unsigned C, uint64_t T) {
    HwCtx &Cx = Mes[Me].Ctx[C];
    Ring &Rg = In[Me];
    if (Rg.empty()) {
      Cx.Ph = CtxPh::ParkedRing;
      Consumers[Me].push_back(C);
      return;
    }
    Cx.CurSeq = Rg.pop(T);
    Cx.Rec = &InFlight.at(Cx.CurSeq);
    wakeRxIfRingFreed(Me, T);
    Cx.Ph = CtxPh::PopWait;
    sched(ScratchCh.submit(T), Ev::CtxResume, Me, C);
  }

  void wantPushTx(unsigned Me, unsigned C, uint64_t T) {
    HwCtx &Cx = Mes[Me].Ctx[C];
    maybeStallRing(Tx, P.MP.MeCount, T);
    if (Tx.full() || Tx.stalled(T)) {
      Cx.Ph = CtxPh::ParkedTx;
      TxProducers.emplace_back(Me, C);
      return;
    }
    Tx.push(Cx.CurSeq, T);
    Cx.Ph = CtxPh::PushWait;
    sched(ScratchCh.submit(T), Ev::CtxResume, Me, C);
    if (TxIdle)
      txStartPop(T);
  }

  void ctxReady(unsigned Me, unsigned C, uint64_t T) {
    Mes[Me].Ready.push_back(C);
    sched(std::max(T, Mes[Me].FreeAt), Ev::MeRun, Me);
  }

  void onCtxResume(unsigned Me, unsigned C, uint64_t T) {
    HwCtx &Cx = Mes[Me].Ctx[C];
    switch (Cx.Ph) {
    case CtxPh::PopWait:
      Cx.Ph = CtxPh::StartReady;
      ctxReady(Me, C, T);
      break;
    case CtxPh::MemWait:
      Cx.Ph = CtxPh::RunReady;
      ctxReady(Me, C, T);
      break;
    case CtxPh::PushWait:
    case CtxPh::RetryPop:
      wantPop(Me, C, T);
      break;
    case CtxPh::RetryPush:
      wantPushTx(Me, C, T);
      break;
    default:
      assert(false && "CtxResume in an unexpected phase");
    }
  }

  void onMeRun(unsigned Me, uint64_t T) {
    MeState &M = Mes[Me];
    if (M.FreeAt > T || M.Ready.empty()) {
      ++St.Kernel.NoopMeRuns;
      return; // still busy, or a duplicate wakeup already served
    }
    unsigned C = M.Ready.front();
    M.Ready.pop_front();
    HwCtx &Cx = M.Ctx[C];

    InFlightRec &Rec = *Cx.Rec;
    if (Cx.Ph == CtxPh::StartReady) {
      Rec.Me = Me;
      Rec.Ctx = C;
      Cx.reset(Rec.RebasedArgs);
      Cx.Ph = CtxPh::RunReady;
    }

    uint64_t End = T;
    if (!Cx.done()) {
      // Quarantined tail packets execute against their private image;
      // everyone else shares the chip's memory.
      sim::AllocContext::Yield Y =
          Cx.resume(Rec.PrivMem ? *Rec.PrivMem : Mem, Opts);
      End = T + Y.Cycles;
      M.Busy += Y.Cycles;
      St.MeBusyCycles[Me] += Y.Cycles;
      M.FreeAt = End;
      sched(End, Ev::MeRun, Me); // serve the next ready context
      if (Y.K == sim::AllocContext::Yield::Kind::Mem) {
        // The swap point: issue the reference, park the context until
        // the data returns, and let another context have the engine.
        if (Sup.enabled() && Y.Space == MemSpace::Sdram)
          maybeBrownout(End);
        uint64_t Tc = chan(Y.Space).submit(End);
        Cx.charge(Tc - End); // latency + queueing delay
        if (Sup.enabled() && Rec.PlannedLockups >= Rec.Attempts) {
          // ctx-lockup: the reference went out but its completion
          // signal is lost — the context freezes with no resume event;
          // only the supervisor's watchdog can recover it.
          RecoveryStats &RS = Sup.stats();
          ++RS.LockupsInjected;
          if (!Rec.Wedged) {
            Rec.Wedged = true;
            ++RS.PacketsWedged;
          }
          Cx.Ph = CtxPh::Wedged;
          Cx.WedgeTime = End;
          return;
        }
        Cx.Ph = CtxPh::MemWait;
        sched(Tc, Ev::CtxResume, Me, C);
        return;
      }
    } else {
      sched(T, Ev::MeRun, Me); // entry trap: engine stays free
    }

    // Packet finished (halt or trap): record and hand to TX.
    Rec.Result = Cx.takeResult();
    Rec.CompleteTime = End;
    if (Rec.Wedged)
      ++Sup.stats().PacketsRecovered;
    ++St.CtxPackets[Me][C];
    wantPushTx(Me, C, End);
  }

  /// Counts one application SDRAM reference against the chan-brownout
  /// schedule; when it fires (and no window is already active) the SDRAM
  /// channel's issue interval degrades for BrownoutWindow cycles.
  void maybeBrownout(uint64_t T) {
    unsigned Factor = Sup.brownoutFactor();
    if (!Factor || BrownoutActive)
      return;
    BrownoutActive = true;
    SdramCh.IssueInterval = SdramBaseInterval * Factor;
    RecoveryStats &RS = Sup.stats();
    ++RS.BrownoutsInjected;
    RS.BrownoutCycles += Sup.config().BrownoutWindow;
    sched(T + Sup.config().BrownoutWindow, Ev::BrownoutEnd);
  }

  //===--- TX agent --------------------------------------------------------===//

  void txStartPop(uint64_t T) {
    TxIdle = false;
    uint64_t Seq = Tx.pop(T);
    if (!TxProducers.empty()) {
      auto [M, C] = TxProducers.front();
      TxProducers.pop_front();
      Mes[M].Ctx[C].Ph = CtxPh::RetryPush;
      sched(T, Ev::CtxResume, M, C);
    }
    sched(ScratchCh.submit(T), Ev::TxPopDone, 0, 0, Seq);
  }

  void onTxPopDone(uint64_t Seq, uint64_t T) {
    auto It = InFlight.find(Seq);
    assert(It != InFlight.end() && "TX popped an unknown packet");
    // TX has pulled the completion off the ring: the packet is done
    // executing and its descriptor is in TX's hands, so its SDRAM slot
    // recycles NOW — not at in-order retirement. Holding slots to
    // retirement would let one slow (watchdog-bound) head packet stall
    // every context behind it; freeing at TX pop keeps the execution
    // window bounded only by contexts and rings. The reorder buffer
    // below re-sequences descriptors for the in-order hand-off.
    if (!It->second.Tail)
      FreeSlots.insert(It->second.SlotIdx);
    --InFlightCount;
    Reorder.emplace(Seq, std::move(It->second));
    InFlight.erase(It);
    St.ReorderHighWater = std::max(
        St.ReorderHighWater, static_cast<unsigned>(Reorder.size()));

    drainReorder(T);
    wakeRxIfSlotFreed(T);

    if (!Tx.empty())
      txStartPop(T);
    else
      TxIdle = true;
  }

  /// Retires every in-order completion at the head of the reorder
  /// buffer. Shared by the TX pop path and the recovery paths that
  /// synthesize typed drops (backpressure, exhausted DMA) directly into
  /// the reorder buffer.
  void drainReorder(uint64_t T) {
    while (!Reorder.empty() && Reorder.begin()->first == NextRetire) {
      InFlightRec Rec = std::move(Reorder.begin()->second);
      Reorder.erase(Reorder.begin());
      ++St.PacketsRetired;
      ++St.Kernel.Retired;
      RetireFold = traceFold(RetireFold, NextRetire);
      RetireFold = traceFold(RetireFold, T);
      ++NextRetire;

      RetiredPacket RP;
      RP.Pkt = std::move(Rec.Pkt);
      RP.RebasedArgs = std::move(Rec.RebasedArgs);
      RP.Result = std::move(Rec.Result);
      RP.Me = Rec.Me;
      RP.Ctx = Rec.Ctx;
      RP.Tail = Rec.Tail;
      RP.SlotBase = Rec.SlotBase;
      RP.DispatchTime = Rec.DispatchTime;
      RP.CompleteTime = Rec.CompleteTime;
      RP.RetireTime = T;
      RP.Drop = Rec.Drop;
      RP.Attempts = Rec.Attempts;
      (*Retire)(std::move(RP));
    }
  }

  //===--- Supervisor ------------------------------------------------------===//

  /// Watchdog scan + RX backpressure check. Scheduled only when a fault
  /// schedule is armed, so fault-free runs stay event-for-event
  /// identical to an unsupervised chip.
  void onSupTick(uint64_t T) {
    const SupervisorConfig &C = Sup.config();
    RecoveryStats &RS = Sup.stats();

    // Retire-progress watchdog: a context whose outstanding memory
    // reference never completed and that has made no progress for
    // LockupThreshold cycles is declared locked up. Recovery aborts
    // it; the packet either requeues (bounded retries, exponential
    // backoff) or retires dead as a typed Lockup drop — in order.
    for (unsigned M = 0; M != P.MP.MeCount; ++M) {
      for (unsigned Cn = 0; Cn != P.MP.ContextsPerMe; ++Cn) {
        HwCtx &Cx = Mes[M].Ctx[Cn];
        if (Cx.Ph != CtxPh::Wedged || T - Cx.WedgeTime < C.LockupThreshold)
          continue;
        ++RS.LockupsDetected;
        Cx.abort();
        ++RS.CtxResets;
        InFlightRec &Rec = *Cx.Rec;
        if (Rec.Attempts - 1 >= C.MaxRetries) {
          // Retries exhausted: declare the packet dead and push the
          // typed drop through the normal TX path so retirement stays
          // in arrival order.
          ++RS.LockupDrops;
          Rec.Drop = DropReason::Lockup;
          Rec.Result = sim::RunResult();
          Rec.Result.Ok = false;
          Rec.CompleteTime = T;
          ++St.CtxPackets[M][Cn];
          wantPushTx(M, Cn, T);
        } else {
          uint64_t Delay = Sup.backoff(Rec.Attempts);
          RS.MaxBackoffCycles = std::max(RS.MaxBackoffCycles, Delay);
          ++RS.PacketRequeues;
          Cx.Ph = CtxPh::RestartWait;
          sched(T + Delay, Ev::CtxRestart, M, Cn);
        }
      }
    }

    // RX backpressure: when every input ring has stayed full (or
    // NAKing) past the threshold, drop the pending packet instead of
    // waiting unboundedly — ingress loss is typed and bounded, and RX
    // moves on to the next arrival.
    if (RxWaiting == RxWait::RingFull && RxStuck &&
        T - RxStuckSince >= C.BackpressureThreshold) {
      auto It = InFlight.find(RxPendSeq);
      assert(It != InFlight.end() && "backpressure drop of unknown packet");
      InFlightRec Rec = std::move(It->second);
      InFlight.erase(It);
      --InFlightCount;
      if (!Rec.Tail)
        FreeSlots.insert(Rec.SlotIdx);
      Rec.PrivMem.reset();
      Rec.Drop = DropReason::Backpressure;
      Rec.Result = sim::RunResult();
      Rec.Result.Ok = false;
      Rec.CompleteTime = T;
      ++RS.BackpressureDrops;
      Reorder.emplace(Rec.Pkt.Seq, std::move(Rec));
      St.ReorderHighWater = std::max(
          St.ReorderHighWater, static_cast<unsigned>(Reorder.size()));
      drainReorder(T);
      RxStuck = false;
      RxWaiting = RxWait::None;
      RxHave = false;
      RxPhase = RxPh::Dispatch;
      schedRx(T);
    }

    // Keep ticking while anything is still moving through the chip.
    if (!RxDone || RxHave || InFlightCount != 0 || !Reorder.empty())
      sched(T + C.WatchdogPeriod, Ev::SupTick);
  }

  /// Backoff expired: restore the packet's pristine input state (slot
  /// scrub + re-DMA, fresh quarantine image for tail packets, spill
  /// window scrub) and requeue it on its context. Apps never write
  /// SRAM/scratch outside their spill window, so a restart is
  /// idempotent: the retry sees exactly the state a first run sees.
  void onCtxRestart(unsigned Me, unsigned C, uint64_t T) {
    HwCtx &Cx = Mes[Me].Ctx[C];
    assert(Cx.Ph == CtxPh::RestartWait && "CtxRestart in unexpected phase");
    InFlightRec &Rec = *Cx.Rec;
    ++Rec.Attempts;
    if (Rec.Tail)
      Rec.PrivMem = std::make_unique<sim::Memory>(BaseImage);
    else
      scrubSdram(Rec.SlotBase, uint64_t(Rec.SlotBase) + P.SlotStride);
    (void)rxDma(Rec, T, 0); // restart re-DMA never re-fires dma-drop
    uint64_t Td = RxDmaEnd;
    const alloc::AllocatedProgram *Pr = Progs[Me];
    uint32_t SpillLo =
        Pr->SpillBase + (Me * P.MP.ContextsPerMe + C) * SpillStep;
    Mem.Scratch.eraseRange(SpillLo, uint64_t(SpillLo) + Pr->NumSpillSlots);
    Cx.Ph = CtxPh::StartReady;
    ctxReady(Me, C, Td);
  }

  void onBrownoutEnd() {
    SdramCh.IssueInterval = SdramBaseInterval;
    BrownoutActive = false;
  }

  /// A ring-stall window ended: wake whoever was parked on the ring.
  void onRingUnstall(unsigned RingId, uint64_t T) {
    if (RingId >= P.MP.MeCount) {
      // TX ring: wake one parked producer (each successful push then
      // triggers pops, and each pop wakes the next producer).
      if (!TxProducers.empty() && !Tx.full() && !Tx.stalled(T)) {
        auto [M, Cn] = TxProducers.front();
        TxProducers.pop_front();
        Mes[M].Ctx[Cn].Ph = CtxPh::RetryPush;
        sched(T, Ev::CtxResume, M, Cn);
      }
      return;
    }
    wakeRxIfRingFreed(RingId, T);
  }

  //===--- Checkpoint ------------------------------------------------------===//

  // Serializes every mutable field of the simulation, in declaration
  // order. Construction-derived state (P, Progs, Trans, BaseImage,
  // Opts, SpillStep, SdramBaseInterval, spill rebases, ring/slot
  // geometry) is rebuilt deterministically by the constructor and NOT
  // saved; Ran/Src/Retire/Hook are per-run wiring.
  void saveState(BinWriter &W) const {
    saveChannel(W, SramCh);
    saveChannel(W, SdramCh);
    saveChannel(W, ScratchCh);
    for (const MeState &M : Mes) {
      W.u64(M.FreeAt);
      W.u64(M.Busy);
      W.u32(static_cast<uint32_t>(M.Ready.size()));
      for (unsigned C : M.Ready)
        W.u32(C);
      for (const HwCtx &Cx : M.Ctx) {
        if (Cx.Threaded)
          Cx.Seg.saveState(W);
        else
          Cx.Exec.saveState(W);
        W.u8(static_cast<uint8_t>(Cx.Ph));
        W.u64(Cx.CurSeq);
        W.u64(Cx.WedgeTime);
      }
    }
    for (const Ring &Rg : In)
      Rg.saveState(W);
    for (const std::deque<unsigned> &D : Consumers) {
      W.u32(static_cast<uint32_t>(D.size()));
      for (unsigned C : D)
        W.u32(C);
    }
    Tx.saveState(W);
    W.b(TxIdle);
    W.u32(static_cast<uint32_t>(TxProducers.size()));
    for (const auto &[M, C] : TxProducers) {
      W.u32(M);
      W.u32(C);
    }
    saveRecMap(W, InFlight);
    saveRecMap(W, Reorder);
    W.u64(NextRetire);
    W.u64(NextDispatch);
    W.u64(FreeSlots.size());
    for (uint32_t S : FreeSlots)
      W.u32(S);
    W.u64(InFlightCount);
    W.u8(static_cast<uint8_t>(RxPhase));
    W.u8(static_cast<uint8_t>(RxWaiting));
    W.b(RxDone);
    W.b(RxHave);
    W.b(RxPktTail);
    savePacket(W, RxPkt);
    W.u64(RxPendSeq);
    W.u32(RxTarget);
    W.u64(RxGen);
    W.u64(RxDmaEnd);
    Sup.saveState(W);
    W.b(BrownoutActive);
    W.b(RxStuck);
    W.u64(RxStuckSince);
    Mem.saveState(W);
    // Pending events in (Time, Order) order. A sorted array is also a
    // valid heap under EventAfter, the layout earlier builds restore
    // verbatim into their binary heap.
    std::vector<Event> Pending = Q.sorted();
    W.u64(Pending.size());
    for (const Event &E : Pending) {
      W.u64(E.Time);
      W.u64(E.Order);
      W.u8(static_cast<uint8_t>(E.kind()));
      W.u32(E.me());
      W.u32(E.ctx());
      W.u64(E.word());
    }
    W.u64(OrderCtr);
    W.u64(LastTime);
    // ChipRunStats accumulators (the derived fields — FinalCycles,
    // channel/ring summaries, TraceHash, Recovery — are produced at
    // finalization from state serialized above).
    W.u64(St.PacketsDispatched);
    W.u64(St.PacketsRetired);
    W.u64(St.TailPackets);
    for (uint64_t V : St.MeBusyCycles)
      W.u64(V);
    for (const std::vector<uint64_t> &Row : St.CtxPackets)
      for (uint64_t V : Row)
        W.u64(V);
    W.u32(St.ReorderHighWater);
    W.u64(St.RxDmaTransactions);
    W.u64(RetireFold);
  }

  /// Reads a context index, latching \p R 's failure (and yielding 0)
  /// when it is out of range.
  unsigned readCtxIndex(BinReader &R) const {
    uint32_t C = R.u32();
    if (C < P.MP.ContextsPerMe)
      return C;
    R.fail();
    return 0;
  }

  // Rejects, through R.fail(), a checksum-valid payload that would index
  // out of range or break the event queue's invariants once run: events
  // of unknown kind or with out-of-range operands, events before
  // LastTime or numbered above OrderCtr, out-of-range ready, consumer
  // and producer entries, and contexts whose phase needs a packet that
  // is not in flight.
  void restoreState(BinReader &R) {
    restoreChannel(R, SramCh);
    restoreChannel(R, SdramCh);
    restoreChannel(R, ScratchCh);
    for (MeState &M : Mes) {
      M.FreeAt = R.u64();
      M.Busy = R.u64();
      M.Ready.clear();
      uint32_t NR = R.u32();
      for (uint32_t I = 0; I != NR && !R.failed(); ++I)
        M.Ready.push_back(readCtxIndex(R));
      for (HwCtx &Cx : M.Ctx) {
        if (Cx.Threaded)
          Cx.Seg.restoreState(R);
        else
          Cx.Exec.restoreState(R);
        uint8_t Ph = R.u8();
        if (Ph > static_cast<uint8_t>(CtxPh::RestartWait))
          R.fail();
        Cx.Ph = static_cast<CtxPh>(Ph);
        Cx.CurSeq = R.u64();
        Cx.WedgeTime = R.u64();
      }
      // Only a context waiting for the engine may sit in its ready queue.
      for (unsigned C : M.Ready)
        if (M.Ctx[C].Ph != CtxPh::StartReady && M.Ctx[C].Ph != CtxPh::RunReady)
          R.fail();
    }
    for (Ring &Rg : In)
      Rg.restoreState(R);
    for (std::deque<unsigned> &D : Consumers) {
      D.clear();
      uint32_t N = R.u32();
      for (uint32_t I = 0; I != N && !R.failed(); ++I)
        D.push_back(readCtxIndex(R));
    }
    Tx.restoreState(R);
    TxIdle = R.b();
    TxProducers.clear();
    uint32_t NTx = R.u32();
    for (uint32_t I = 0; I != NTx && !R.failed(); ++I) {
      unsigned M = R.u32();
      if (M >= P.MP.MeCount)
        R.fail();
      TxProducers.emplace_back(M, readCtxIndex(R));
    }
    restoreRecMap(R, InFlight);
    restoreRecMap(R, Reorder);
    NextRetire = R.u64();
    NextDispatch = R.u64();
    FreeSlots.clear();
    uint64_t NS = R.u64();
    for (uint64_t I = 0; I != NS && !R.failed(); ++I)
      FreeSlots.insert(R.u32());
    InFlightCount = R.u64();
    RxPhase = static_cast<RxPh>(R.u8());
    RxWaiting = static_cast<RxWait>(R.u8());
    RxDone = R.b();
    RxHave = R.b();
    RxPktTail = R.b();
    restorePacket(R, RxPkt);
    RxPendSeq = R.u64();
    RxTarget = R.u32();
    RxGen = R.u64();
    RxDmaEnd = R.u64();
    Sup.restoreState(R);
    BrownoutActive = R.b();
    RxStuck = R.b();
    RxStuckSince = R.u64();
    Mem.restoreState(R);
    std::vector<Event> Pending;
    uint64_t NQ = R.u64();
    constexpr size_t EventRecordBytes = 8 + 8 + 1 + 4 + 4 + 8;
    if (NQ > R.remaining() / EventRecordBytes)
      R.fail(); // fewer bytes left than NQ event records need
    for (uint64_t I = 0; I != NQ && !R.failed(); ++I) {
      uint64_t Time = R.u64();
      uint64_t Order = R.u64();
      uint8_t K = R.u8();
      uint32_t Me = R.u32();
      uint32_t Ctx = R.u32();
      uint64_t A = R.u64();
      if (!validEvent(K, Me, Ctx, A)) {
        R.fail();
        break;
      }
      Pending.push_back(
          Event::make(Time, Order, static_cast<Ev>(K), Me, Ctx, A));
    }
    OrderCtr = R.u64();
    LastTime = R.u64();
    for (const Event &E : Pending)
      if (E.Time < LastTime || E.Order > OrderCtr ||
          (E.kind() == Ev::TxPopDone && !InFlight.count(E.word())))
        R.fail();
    St.PacketsDispatched = R.u64();
    St.PacketsRetired = R.u64();
    St.TailPackets = R.u64();
    for (uint64_t &V : St.MeBusyCycles)
      V = R.u64();
    for (std::vector<uint64_t> &Row : St.CtxPackets)
      for (uint64_t &V : Row)
        V = R.u64();
    St.ReorderHighWater = R.u32();
    St.RxDmaTransactions = R.u64();
    RetireFold = R.u64();
    if (!R.failed())
      Q.assign(std::move(Pending), LastTime);
    // Re-derive the cached records; a context whose phase dereferences
    // one must have its packet in flight.
    for (MeState &M : Mes)
      for (HwCtx &Cx : M.Ctx) {
        auto It = InFlight.find(Cx.CurSeq);
        Cx.Rec = It == InFlight.end() ? nullptr : &It->second;
        if (!Cx.Rec && needsRec(Cx.Ph))
          R.fail();
      }
    LastHookRetired = St.PacketsRetired;
    Restored = true;
  }

  /// An event record as saveState writes it: a known kind, ME and
  /// context in range (a RingUnstall's ring id may be MeCount, the TX
  /// ring), and only the operands the kind carries.
  bool validEvent(uint8_t K, uint32_t Me, uint32_t Ctx, uint64_t A) const {
    if (K >= NumEvKinds)
      return false;
    Ev Kind = static_cast<Ev>(K);
    if (carriesWord(Kind))
      return Me == 0 && Ctx == 0 && A < Event::WordLimit;
    uint32_t MeBound =
        Kind == Ev::RingUnstall ? P.MP.MeCount + 1 : P.MP.MeCount;
    return A == 0 && Me < MeBound && Ctx < P.MP.ContextsPerMe;
  }

  /// Phases whose next step reads the context's in-flight record.
  static bool needsRec(CtxPh Ph) {
    switch (Ph) {
    case CtxPh::PopWait:
    case CtxPh::StartReady:
    case CtxPh::RunReady:
    case CtxPh::MemWait:
    case CtxPh::Wedged:
    case CtxPh::RestartWait:
      return true;
    default:
      return false;
    }
  }

  //===--- Event loop ------------------------------------------------------===//

  ChipRunStats runAll(const Source &S, const RetireFn &R) {
    assert(!Ran && "Chip::run is single-shot");
    Ran = true;
    Src = &S;
    Retire = &R;
    if (!Restored) {
      schedRx(0);
      if (Sup.enabled())
        sched(Sup.config().WatchdogPeriod, Ev::SupTick);
    }

    while (!Q.empty()) {
      Event E = Q.pop();
      LastTime = E.Time; // pops never go back in time
      ++St.Kernel.Handled[static_cast<unsigned>(E.kind())];
      switch (E.kind()) {
      case Ev::MeRun:
        onMeRun(E.me(), E.Time);
        break;
      case Ev::CtxResume:
        onCtxResume(E.me(), E.ctx(), E.Time);
        break;
      case Ev::RxStep:
        rxStep(E.Time, E.word());
        break;
      case Ev::TxPopDone:
        onTxPopDone(E.word(), E.Time);
        break;
      case Ev::SupTick:
        onSupTick(E.Time);
        break;
      case Ev::CtxRestart:
        onCtxRestart(E.me(), E.ctx(), E.Time);
        break;
      case Ev::BrownoutEnd:
        onBrownoutEnd();
        break;
      case Ev::RingUnstall:
        onRingUnstall(E.me(), E.Time);
        break;
      }
      if (Hook && St.PacketsRetired != LastHookRetired) {
        LastHookRetired = St.PacketsRetired;
        if (Hook(St.PacketsRetired, LastTime)) {
          Stopped = true;
          return St; // partial: the caller treats this run as crashed
        }
      }
    }

    St.FinalCycles = LastTime;
    St.Deadlock =
        InFlightCount != 0 || !Reorder.empty() || RxHave || !RxDone;
    St.Sram = SramCh.St;
    St.Sdram = SdramCh.St;
    St.Scratch = ScratchCh.St;
    uint64_t H = 0xcbf29ce484222325ull;
    for (const Ring &Rg : In) {
      St.InputRings.push_back({Rg.capacity(), Rg.highWater(), Rg.pushes(),
                               Rg.pops(), Rg.traceHash()});
      H = traceFold(H, Rg.traceHash());
    }
    St.TxRing = {Tx.capacity(), Tx.highWater(), Tx.pushes(), Tx.pops(),
                 Tx.traceHash()};
    H = traceFold(H, Tx.traceHash());
    H = traceFold(H, RetireFold);
    St.TraceHash = H;
    St.Exec = P.Exec;
    St.Recovery = Sup.stats();
    for (const auto &KV : Trans) {
      St.Superblocks += KV.second.Superblocks;
      St.SuperblockOps += KV.second.SuperblockOps;
    }
    return St;
  }
};

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

const char *KernelStats::kindName(unsigned K) {
  static const char *const Names[NumKinds] = {
      "me_run",  "ctx_resume",  "rx_step",      "tx_pop_done",
      "sup_tick", "ctx_restart", "brownout_end", "ring_unstall"};
  return K < NumKinds ? Names[K] : "unknown";
}

Chip::Chip(const ChipParams &P,
           std::vector<const alloc::AllocatedProgram *> ProgramPerMe,
           sim::Memory Base)
    : I(std::make_unique<Impl>(P, std::move(ProgramPerMe),
                               std::move(Base))) {}

Chip::~Chip() = default;

ChipRunStats Chip::run(const Source &Src, const RetireFn &Retire) {
  return I->runAll(Src, Retire);
}

sim::Memory &Chip::memory() { return I->Mem; }

void Chip::setRetireHook(RetireHook H) { I->Hook = std::move(H); }

bool Chip::stopped() const { return I->Stopped; }

void Chip::saveState(BinWriter &W) const { I->saveState(W); }

void Chip::restoreState(BinReader &R) { I->restoreState(R); }
