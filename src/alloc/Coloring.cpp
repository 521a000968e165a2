//===- Coloring.cpp - Register coloring over an interference graph --------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "alloc/Coloring.h"

#include <algorithm>
#include <cassert>

using namespace nova;
using namespace nova::alloc;
using namespace nova::ixp;

unsigned alloc::colorCapacity(Bank B) {
  return B == Bank::B || B == Bank::A ? 16 : 8;
}

Adjacency alloc::buildInterference(const std::vector<ColorVertex> &Vs) {
  // Bucket the vertices by (slot, bank), in compressed rows.
  auto Key = [](uint32_t Slot, Bank B) {
    return static_cast<size_t>(Slot) * NumBanks + static_cast<size_t>(B);
  };
  size_t NumKeys = 0;
  for (const ColorVertex &V : Vs)
    if (!V.Slots.empty())
      NumKeys = std::max(NumKeys, Key(V.Slots.back(), V.B) + 1);
  std::vector<uint32_t> Start(NumKeys + 1, 0);
  for (const ColorVertex &V : Vs)
    for (uint32_t S : V.Slots)
      ++Start[Key(S, V.B) + 1];
  for (size_t K = 0; K != NumKeys; ++K)
    Start[K + 1] += Start[K];
  std::vector<uint32_t> Members(Start.back());
  std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
  for (uint32_t Id = 0; Id != Vs.size(); ++Id)
    for (uint32_t S : Vs[Id].Slots)
      Members[Fill[Key(S, Vs[Id].B)]++] = Id;

  // A vertex's neighbours are the other clone sets in its buckets;
  // Seen[Other] == Id marks one already listed.
  Adjacency Adj(Vs.size());
  std::vector<uint32_t> Seen(Vs.size(), ~0u);
  for (uint32_t Id = 0; Id != Vs.size(); ++Id) {
    const ColorVertex &V = Vs[Id];
    for (uint32_t S : V.Slots) {
      size_t K = Key(S, V.B);
      for (uint32_t I = Start[K]; I != Start[K + 1]; ++I) {
        uint32_t Other = Members[I];
        if (Seen[Other] == Id || Vs[Other].CloneRep == V.CloneRep)
          continue;
        Seen[Other] = Id;
        Adj[Id].push_back(Other);
      }
    }
    std::sort(Adj[Id].begin(), Adj[Id].end());
  }
  return Adj;
}

ColorOutcome
alloc::colorGraph(const std::vector<ColorVertex> &Vs, const Adjacency &Adj,
                  const std::vector<std::pair<uint32_t, uint32_t>> &Affinities) {
  const uint32_t N = static_cast<uint32_t>(Vs.size());
  ColorOutcome Out;
  Out.Reg.assign(N, -1);

  // Each vertex's affinity partners, in the order of \p Affinities.
  std::vector<std::vector<uint32_t>> Partners(N);
  for (auto [A, B] : Affinities)
    if (A != B) {
      Partners[A].push_back(B);
      Partners[B].push_back(A);
    }

  auto TryAssign = [&](uint32_t Id) -> bool {
    const ColorVertex &V = Vs[Id];
    uint64_t Used = 0; // every register is below colorCapacity() <= 16
    for (uint32_t Other : Adj[Id])
      if (Out.Reg[Other] >= 0)
        Used |= uint64_t(1) << Out.Reg[Other];
    if (V.Precolor >= 0) {
      assert(static_cast<unsigned>(V.Precolor) < colorCapacity(V.B));
      if (Used >> V.Precolor & 1)
        return false;
      Out.Reg[Id] = V.Precolor;
      return true;
    }
    // Affinity preference (optimistic coalescing of Move endpoints).
    for (uint32_t Other : Partners[Id]) {
      int R = Out.Reg[Other];
      if (Vs[Other].B == V.B && R >= 0 && !(Used >> R & 1)) {
        Out.Reg[Id] = R;
        return true;
      }
    }
    for (unsigned R = 0; R != colorCapacity(V.B); ++R)
      if (!(Used >> R & 1)) {
        Out.Reg[Id] = static_cast<int>(R);
        return true;
      }
    return false;
  };

  // Precolored vertices are pinned first.
  std::vector<uint32_t> Work;
  for (uint32_t Id = 0; Id != N; ++Id) {
    if (Vs[Id].Precolor < 0) {
      Work.push_back(Id);
    } else if (!TryAssign(Id)) {
      Out.Status = ColorStatus::PrecolorConflict;
      Out.Failed = Id;
      return Out;
    }
  }

  // Chaitin-Briggs simplify: peel a vertex whose degree among the
  // still-unpeeled is below the bank capacity; when none qualifies, peel
  // the max-degree vertex optimistically (Park-Moon style optimism: a
  // color may still remain at select time). Precolored vertices are
  // never peeled, so they never count towards a degree.
  std::vector<unsigned> Degree(N, 0);
  for (uint32_t Id : Work)
    for (uint32_t Other : Adj[Id])
      if (Vs[Other].Precolor < 0)
        ++Degree[Id];
  std::vector<bool> Peeled(N, false);
  std::vector<uint32_t> Stack;
  Stack.reserve(Work.size());
  while (!Work.empty()) {
    size_t Pick = Work.size();
    unsigned PickDeg = ~0u;
    for (size_t I = 0; I != Work.size() && PickDeg != 0; ++I) {
      unsigned D = Degree[Work[I]];
      if (D < colorCapacity(Vs[Work[I]].B) && D < PickDeg) {
        Pick = I;
        PickDeg = D;
      }
    }
    if (Pick == Work.size()) {
      Pick = 0;
      for (size_t I = 1; I != Work.size(); ++I)
        if (Degree[Work[I]] > Degree[Work[Pick]])
          Pick = I;
    }
    uint32_t Id = Work[Pick];
    Work.erase(Work.begin() + static_cast<std::ptrdiff_t>(Pick));
    Peeled[Id] = true;
    Stack.push_back(Id);
    for (uint32_t Other : Adj[Id])
      if (Vs[Other].Precolor < 0 && !Peeled[Other])
        --Degree[Other];
  }

  // Select in reverse peel order.
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
    if (!TryAssign(*It)) {
      Out.Status = ColorStatus::OutOfRegisters;
      Out.Failed = *It;
      return Out;
    }
  return Out;
}
