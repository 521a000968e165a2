//===- SimUtil.h - Internal helpers shared by the sim translation units ---===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trap-construction and MemSpace helpers shared by the functional
/// interpreter (Simulator.cpp), the step function (Step.h), and the fast
/// path's translator and threaded tier, which must build the very same
/// trap messages. Not part of the public API.
///
//===----------------------------------------------------------------------===//

#ifndef SIM_SIMUTIL_H
#define SIM_SIMUTIL_H

#include "sim/Simulator.h"
#include "support/StringUtils.h"

namespace nova {
namespace sim {
namespace detail {

/// Sets the trap fields of \p R and returns it for `return trap(...)`.
inline RunResult &trap(RunResult &R, TrapKind K, const std::string &Detail) {
  R.Ok = false;
  R.Trap = K;
  R.Error = Status::error(
      StatusCode::SimTrap, Phase::Execute,
      formatf("%s: %s", sim::trapKindName(K), Detail.c_str()));
  return R;
}

inline TrapKind rangeTrapFor(MemSpace S) {
  switch (S) {
  case MemSpace::Sram:    return TrapKind::SramOutOfRange;
  case MemSpace::Sdram:   return TrapKind::SdramOutOfRange;
  case MemSpace::Scratch: return TrapKind::ScratchOutOfRange;
  }
  return TrapKind::IllegalMemSpace;
}

inline bool validSpace(MemSpace S) {
  return S == MemSpace::Sram || S == MemSpace::Sdram ||
         S == MemSpace::Scratch;
}

inline const char *spaceName(MemSpace S) {
  switch (S) {
  case MemSpace::Sram:    return "sram";
  case MemSpace::Sdram:   return "sdram";
  case MemSpace::Scratch: return "scratch";
  }
  return "?";
}

} // namespace detail
} // namespace sim
} // namespace nova

#endif // SIM_SIMUTIL_H
