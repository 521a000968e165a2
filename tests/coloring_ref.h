//===- coloring_ref.h - Cubic reference coloring (tests only) --*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The previous generation of the allocator's register coloring, kept as
/// a test oracle: Chaitin-Briggs simplify/select with no interference
/// graph. Every simplify step recomputes every unpeeled vertex's degree
/// by testing it against every other vertex, and each test intersects
/// two residency sets; select collects the used registers by scanning
/// every vertex. The production code (alloc/Coloring.h) builds the graph
/// once and keeps degrees incrementally; the randomized tests color the
/// same inputs with both and require identical registers and identical
/// failing vertices.
///
/// Do not use outside tests: a coloring costs O(n^3) set intersections.
///
//===----------------------------------------------------------------------===//

#ifndef TESTS_COLORING_REF_H
#define TESTS_COLORING_REF_H

#include "alloc/Coloring.h"

#include <set>
#include <utility>
#include <vector>

namespace nova {
namespace alloc {
namespace coloringref {

inline bool overlaps(const std::set<uint32_t> &A,
                     const std::set<uint32_t> &B) {
  const std::set<uint32_t> &Small = A.size() < B.size() ? A : B;
  const std::set<uint32_t> &Big = &Small == &A ? B : A;
  for (uint32_t S : Small)
    if (Big.count(S))
      return true;
  return false;
}

inline ColorOutcome
color(const std::vector<ColorVertex> &Vs,
      const std::vector<std::pair<uint32_t, uint32_t>> &Affinities) {
  const uint32_t N = static_cast<uint32_t>(Vs.size());
  ColorOutcome Out;
  Out.Reg.assign(N, -1);
  std::vector<std::set<uint32_t>> Residency;
  for (const ColorVertex &V : Vs)
    Residency.emplace_back(V.Slots.begin(), V.Slots.end());
  auto conflicts = [&](uint32_t V1, uint32_t V2) {
    if (Vs[V1].B != Vs[V2].B)
      return false;
    // Clone-set members hold the same value; sharing is always legal.
    if (Vs[V1].CloneRep == Vs[V2].CloneRep)
      return false;
    return overlaps(Residency[V1], Residency[V2]);
  };

  auto TryAssign = [&](uint32_t Id) -> bool {
    const ColorVertex &Vx = Vs[Id];
    std::set<int> Used;
    for (uint32_t Other = 0; Other != N; ++Other) {
      if (Other == Id)
        continue;
      if (Out.Reg[Other] >= 0 && conflicts(Id, Other))
        Used.insert(Out.Reg[Other]);
    }
    if (Vx.Precolor >= 0) {
      if (Used.count(Vx.Precolor))
        return false;
      Out.Reg[Id] = Vx.Precolor;
      return true;
    }
    for (auto &[R1, R2] : Affinities) {
      uint32_t Other = R1 == Id ? R2 : R2 == Id ? R1 : ~0u;
      if (Other == ~0u || Vs[Other].B != Vx.B)
        continue;
      if (Out.Reg[Other] >= 0 && !Used.count(Out.Reg[Other])) {
        Out.Reg[Id] = Out.Reg[Other];
        return true;
      }
    }
    for (int R = 0; R != static_cast<int>(colorCapacity(Vx.B)); ++R)
      if (!Used.count(R)) {
        Out.Reg[Id] = R;
        return true;
      }
    return false;
  };

  std::vector<uint32_t> Work;
  for (uint32_t Id = 0; Id != N; ++Id) {
    if (Vs[Id].Precolor >= 0) {
      if (!TryAssign(Id)) {
        Out.Status = ColorStatus::PrecolorConflict;
        Out.Failed = Id;
        return Out;
      }
    } else {
      Work.push_back(Id);
    }
  }

  std::vector<bool> Peeled(N, false);
  auto Degree = [&](uint32_t Id) {
    unsigned D = 0;
    for (uint32_t Other : Work)
      if (Other != Id && !Peeled[Other] && conflicts(Id, Other))
        ++D;
    return D;
  };
  std::vector<uint32_t> Stack;
  unsigned Remaining = Work.size();
  while (Remaining) {
    int Pick = -1;
    unsigned PickDeg = ~0u;
    for (uint32_t Id : Work) {
      if (Peeled[Id])
        continue;
      unsigned D = Degree(Id);
      if (D < colorCapacity(Vs[Id].B) && D < PickDeg) {
        Pick = static_cast<int>(Id);
        PickDeg = D;
      }
    }
    if (Pick < 0) {
      unsigned Best = 0;
      for (uint32_t Id : Work) {
        if (Peeled[Id])
          continue;
        unsigned D = Degree(Id);
        if (Pick < 0 || D > Best) {
          Pick = static_cast<int>(Id);
          Best = D;
        }
      }
    }
    Peeled[Pick] = true;
    Stack.push_back(static_cast<uint32_t>(Pick));
    --Remaining;
  }
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
    if (!TryAssign(*It)) {
      Out.Status = ColorStatus::OutOfRegisters;
      Out.Failed = *It;
      return Out;
    }
  return Out;
}

} // namespace coloringref
} // namespace alloc
} // namespace nova

#endif // TESTS_COLORING_REF_H
