//===- ExecContext.cpp ----------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The resumable interpreter: sim::step (Step.h) over the context's own
// register frame, run through block edges until a memory reference or
// the end of the run. sim_test and the soak oracle pin its behaviour.
//
//===----------------------------------------------------------------------===//

#include "sim/Step.h"

#include <algorithm>
#include <cassert>

using namespace nova;
using namespace nova::sim;
using namespace nova::sim::detail;

bool sim::enterRun(const alloc::AllocatedProgram &P,
                   const std::vector<uint32_t> &Args, uint32_t *Frame,
                   RunResult &R) {
  std::fill_n(Frame, FrameRegs, 0u);
  if (P.Entry == ixp::NoBlock || P.Entry >= P.Blocks.size()) {
    trap(R, TrapKind::MalformedProgram, "no entry block");
    return false;
  }
  if (Args.size() > 15) {
    trap(R, TrapKind::MalformedProgram, "too many entry arguments");
    return false;
  }
  std::copy(Args.begin(), Args.end(), Frame);
  return true;
}

void AllocContext::reset(const std::vector<uint32_t> &Args) {
  assert(Prog && "reset() before setProgram()");
  R = RunResult();
  Pos = StepPos{Prog->Entry, 0, false};
  Finished = !enterRun(*Prog, Args, Frame, R);
}

AllocContext::Yield AllocContext::resume(Memory &Mem, const RunOptions &Opts) {
  assert(!Finished && "resume() on a completed context");
  const uint64_t StartCycles = R.Cycles;
  StepExit X;
  do
    X = step(*Prog, Frame, Pos, R, Mem, Opts, SpillRebase);
  while (X.K == StepExit::Kind::BlockEdge);
  if (X.K == StepExit::Kind::Mem)
    return {Yield::Kind::Mem, X.Space, R.Cycles - StartCycles};
  Finished = true;
  return {Yield::Kind::Done, MemSpace::Sram, R.Cycles - StartCycles};
}

//===----------------------------------------------------------------------===//
// runAllocated: the single-threaded driver — resume, pay the flat memory
// latency, resume again. Bit-identical to the old monolithic loop.
//===----------------------------------------------------------------------===//

RunResult sim::runAllocated(const alloc::AllocatedProgram &P,
                            const std::vector<uint32_t> &Args, Memory &Mem,
                            const LatencyModel &Lat,
                            uint64_t MaxInstructions) {
  RunOptions Opts;
  Opts.Lat = Lat;
  Opts.MaxInstructions = MaxInstructions;
  return runAllocated(P, Args, Mem, Opts);
}

RunResult sim::runAllocated(const alloc::AllocatedProgram &P,
                            const std::vector<uint32_t> &Args, Memory &Mem,
                            const RunOptions &Opts) {
  AllocContext C(&P);
  C.reset(Args);
  while (!C.done()) {
    AllocContext::Yield Y = C.resume(Mem, Opts);
    if (Y.K == AllocContext::Yield::Kind::Mem)
      C.charge(Opts.Lat.memAccess(Y.Space));
  }
  return C.takeResult();
}

//===----------------------------------------------------------------------===//
// Checkpoint serialization
//===----------------------------------------------------------------------===//

void AllocContext::saveState(BinWriter &W) const {
  R.saveState(W);
  W.b(Finished);
  W.b(Pos.Err);
  W.u32(Pos.B);
  W.u32(Pos.Idx);
  for (uint32_t V : Frame) // A, B, L, S, LD, SD: the frame layout order
    W.u32(V);
}

void AllocContext::restoreState(BinReader &Rd) {
  R.restoreState(Rd);
  Finished = Rd.b();
  Pos.Err = Rd.b();
  Pos.B = Rd.u32();
  Pos.Idx = Rd.u32();
  for (uint32_t &V : Frame)
    V = Rd.u32();
}
