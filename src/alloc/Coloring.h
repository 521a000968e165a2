//===- Coloring.h - Register coloring over an interference graph -*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core of register-number assignment inside the banks the ILP chose
/// (paper Section 9): build the interference graph of the stays once,
/// then Chaitin-Briggs simplify/select with optimistic peeling and a
/// coalescing preference for Move endpoints.
///
/// Cost: the graph is built by bucketing every residency slot per bank,
/// so it takes sum over (slot, bank) buckets of k^2 for k residents.
/// Simplify keeps each vertex's degree incrementally (a peel decrements
/// its neighbours) and scans the unpeeled vertices once per step, O(n^2)
/// for n vertices; select reads only each vertex's adjacency list.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOC_COLORING_H
#define ALLOC_COLORING_H

#include "ixp/MachineIr.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace nova {
namespace alloc {

/// One vertex of the coloring problem: a stay, a maximal region over
/// which one value sits in one register bank.
struct ColorVertex {
  ixp::Bank B = ixp::Bank::A;
  /// Clone-set representative: members of one clone set hold the same
  /// value, so they never interfere with each other.
  ixp::Temp CloneRep = 0;
  /// Required register, or -1. Must be below colorCapacity(B).
  int Precolor = -1;
  /// Residency slots (point << 1) | side, sorted and de-duplicated.
  std::vector<uint32_t> Slots;
};

/// Registers the coloring may hand out in \p B. A has 16 physical
/// registers; the ILP's K row admits only 15 simultaneous residents, so
/// the 16th is the slack the paper reserves for optimistic-coalescing
/// repair and copy cycles (Section 6).
unsigned colorCapacity(ixp::Bank B);

using Adjacency = std::vector<std::vector<uint32_t>>;

/// Interference graph of \p Vs: two vertices are adjacent when they share
/// a slot, sit in the same bank and have different clone representatives.
/// Each list is sorted and holds no duplicates and no self edge.
Adjacency buildInterference(const std::vector<ColorVertex> &Vs);

enum class ColorStatus : uint8_t {
  Colored,          ///< every vertex has a register
  PrecolorConflict, ///< two adjacent vertices demand the same register
  OutOfRegisters    ///< select found no free register for a vertex
};

struct ColorOutcome {
  ColorStatus Status = ColorStatus::Colored;
  /// Register per vertex (-1 where none was assigned).
  std::vector<int> Reg;
  /// The vertex that failed (~0u when colored).
  uint32_t Failed = ~0u;
};

/// Colors \p Vs over \p Adj. Precolored vertices are pinned first, in
/// index order. Simplify then peels, among the uncolored vertices still
/// in the graph, the first one (in index order) of minimum degree below
/// its bank's capacity; when none qualifies it peels the first one of
/// maximum degree. Select pops the peel stack: a vertex takes the
/// register of its first already-colored same-bank affinity partner that
/// no neighbour holds, else the lowest free register. \p Affinities are
/// vertex pairs, in preference order.
ColorOutcome
colorGraph(const std::vector<ColorVertex> &Vs, const Adjacency &Adj,
           const std::vector<std::pair<uint32_t, uint32_t>> &Affinities);

} // namespace alloc
} // namespace nova

#endif // ALLOC_COLORING_H
