//===- coloring_test.cpp - Interference-graph register coloring -----------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
// The allocator's register coloring (alloc/Coloring.h) against the cubic
// reference it replaced (coloring_ref.h): on seeded random stays with
// precolors, affinities, clone sets and uncolorable pressure, both must
// assign the same registers and fail on the same vertex, because the
// failing vertex drives the allocator's split-and-retry loop.
//
//===----------------------------------------------------------------------===//

#include "alloc/Coloring.h"
#include "coloring_ref.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

using namespace nova;
using namespace nova::alloc;
using ixp::Bank;

namespace {

struct Problem {
  std::vector<ColorVertex> Vs;
  std::vector<std::pair<uint32_t, uint32_t>> Affinities;
};

/// Random stays over a small slot universe: each is one or two runs of
/// consecutive slots in one of A, B (16 registers) or L, S (8), so the
/// pressure ranges from trivially colorable to hopeless.
Problem randomProblem(uint64_t Seed) {
  Rng R(Seed * 7919 + 1);
  Problem P;
  const unsigned N = 5 + R.below(70);
  const unsigned Universe = 4 + R.below(40);
  const unsigned Reps = 1 + R.below(N);
  const unsigned PrecolorOdds = R.below(6); // out of 16
  const Bank Banks[] = {Bank::A, Bank::B, Bank::L, Bank::S};
  const unsigned NumBanks = 1 + R.below(4);
  for (unsigned I = 0; I != N; ++I) {
    ColorVertex V;
    V.B = Banks[R.below(NumBanks)];
    V.CloneRep = static_cast<ixp::Temp>(R.below(Reps));
    if (R.chance(PrecolorOdds, 16))
      V.Precolor = static_cast<int>(R.below(colorCapacity(V.B)));
    for (unsigned Run = 0, Runs = 1 + R.below(2); Run != Runs; ++Run) {
      unsigned First = R.below(Universe);
      unsigned Len = 1 + R.below(1 + Universe / 3);
      for (unsigned S = First; S != std::min(Universe, First + Len); ++S)
        V.Slots.push_back(S);
    }
    std::sort(V.Slots.begin(), V.Slots.end());
    V.Slots.erase(std::unique(V.Slots.begin(), V.Slots.end()),
                  V.Slots.end());
    P.Vs.push_back(std::move(V));
  }
  for (unsigned K = 0, Count = R.below(N); K != Count; ++K)
    P.Affinities.emplace_back(R.below(N), R.below(N));
  return P;
}

/// Brute-force adjacency: the pairwise test the reference uses.
Adjacency pairwiseAdjacency(const std::vector<ColorVertex> &Vs) {
  Adjacency Adj(Vs.size());
  for (uint32_t I = 0; I != Vs.size(); ++I)
    for (uint32_t J = 0; J != Vs.size(); ++J) {
      if (I == J || Vs[I].B != Vs[J].B || Vs[I].CloneRep == Vs[J].CloneRep)
        continue;
      const std::vector<uint32_t> &A = Vs[I].Slots, &B = Vs[J].Slots;
      std::vector<uint32_t> Common;
      std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                            std::back_inserter(Common));
      if (!Common.empty())
        Adj[I].push_back(J);
    }
  return Adj;
}

ColorVertex stay(Bank B, ixp::Temp Rep, std::vector<uint32_t> Slots,
                 int Precolor = -1) {
  ColorVertex V;
  V.B = B;
  V.CloneRep = Rep;
  V.Slots = std::move(Slots);
  V.Precolor = Precolor;
  return V;
}

} // namespace

TEST(Coloring, InterferenceMatchesPairwiseOverlap) {
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    Problem P = randomProblem(Seed);
    EXPECT_EQ(buildInterference(P.Vs), pairwiseAdjacency(P.Vs))
        << "seed " << Seed;
  }
}

TEST(Coloring, MatchesCubicReferenceOnRandomGraphs) {
  unsigned Seen[3] = {0, 0, 0};
  for (uint64_t Seed = 0; Seed != 400; ++Seed) {
    Problem P = randomProblem(Seed);
    ColorOutcome Fast =
        colorGraph(P.Vs, buildInterference(P.Vs), P.Affinities);
    ColorOutcome Ref = coloringref::color(P.Vs, P.Affinities);
    ASSERT_EQ(Fast.Status, Ref.Status) << "seed " << Seed;
    ASSERT_EQ(Fast.Failed, Ref.Failed) << "seed " << Seed;
    ASSERT_EQ(Fast.Reg, Ref.Reg) << "seed " << Seed;
    ++Seen[static_cast<unsigned>(Fast.Status)];
  }
  // The corpus must exercise every outcome, or the comparison is blind
  // to the failure paths that feed split-and-retry.
  EXPECT_GE(Seen[static_cast<unsigned>(ColorStatus::Colored)], 50u);
  EXPECT_GE(Seen[static_cast<unsigned>(ColorStatus::PrecolorConflict)], 20u);
  EXPECT_GE(Seen[static_cast<unsigned>(ColorStatus::OutOfRegisters)], 20u);
}

TEST(Coloring, SeventeenLiveInAFailsOnTheLastSelected) {
  // A 17-clique in A: 16 registers cannot hold it. Every vertex has
  // degree 16, so all are peeled optimistically; select reaches vertex 0
  // last and finds no register.
  std::vector<ColorVertex> Vs;
  for (unsigned I = 0; I != 17; ++I)
    Vs.push_back(stay(Bank::A, I, {3, 4}));
  ColorOutcome C = colorGraph(Vs, buildInterference(Vs), {});
  EXPECT_EQ(C.Status, ColorStatus::OutOfRegisters);
  EXPECT_EQ(C.Failed, 0u);
  EXPECT_EQ(C.Failed, coloringref::color(Vs, {}).Failed);
}

TEST(Coloring, OptimisticPeelColorsACompleteBipartiteGraph) {
  // K(8,8) in an 8-register bank: every degree is 8, so simplify finds no
  // vertex below capacity and peels optimistically; the graph still
  // 2-colors at select time.
  std::vector<ColorVertex> Vs;
  for (unsigned I = 0; I != 8; ++I) // left side: slots 2I, 2I+1
    Vs.push_back(stay(Bank::L, I, {2 * I, 2 * I + 1}));
  for (unsigned J = 0; J != 8; ++J) // right side: one slot of every left
    Vs.push_back(stay(Bank::L, 8 + J, {}));
  for (unsigned J = 0; J != 8; ++J)
    for (unsigned I = 0; I != 8; ++I)
      Vs[8 + J].Slots.push_back(2 * I + (J & 1));
  // Right vertices share slots with each other; one clone set keeps
  // them independent.
  for (unsigned J = 0; J != 8; ++J)
    Vs[8 + J].CloneRep = 100;
  Adjacency Adj = buildInterference(Vs);
  for (uint32_t Id = 0; Id != 16; ++Id)
    EXPECT_EQ(Adj[Id].size(), 8u) << Id;
  ColorOutcome C = colorGraph(Vs, Adj, {});
  ASSERT_EQ(C.Status, ColorStatus::Colored);
  EXPECT_EQ(C.Reg, coloringref::color(Vs, {}).Reg);
  for (uint32_t Id = 0; Id != 16; ++Id)
    for (uint32_t Other : Adj[Id])
      EXPECT_NE(C.Reg[Id], C.Reg[Other]);
}

TEST(Coloring, AffinityPartnerSharesItsRegister) {
  // Two non-interfering A stays joined by a Move take one register; a
  // precolored neighbour of the second blocks that register, so it falls
  // back to the lowest free one.
  std::vector<ColorVertex> Vs = {stay(Bank::A, 0, {0, 1}),
                                 stay(Bank::A, 1, {2, 3}),
                                 stay(Bank::A, 2, {4, 5}),
                                 stay(Bank::A, 3, {4}, /*Precolor=*/0)};
  std::vector<std::pair<uint32_t, uint32_t>> Aff = {{0, 1}, {1, 2}};
  ColorOutcome C = colorGraph(Vs, buildInterference(Vs), Aff);
  ASSERT_EQ(C.Status, ColorStatus::Colored);
  EXPECT_EQ(C.Reg[0], C.Reg[1]);
  EXPECT_EQ(C.Reg[3], 0);
  EXPECT_NE(C.Reg[2], 0);
  EXPECT_EQ(C.Reg, coloringref::color(Vs, Aff).Reg);
}

TEST(Coloring, PrecolorConflictNamesTheSecondPinnedVertex) {
  std::vector<ColorVertex> Vs = {stay(Bank::L, 0, {7}, 3),
                                 stay(Bank::L, 1, {9}),
                                 stay(Bank::L, 2, {6, 7}, 3)};
  ColorOutcome C = colorGraph(Vs, buildInterference(Vs), {});
  EXPECT_EQ(C.Status, ColorStatus::PrecolorConflict);
  EXPECT_EQ(C.Failed, 2u);
  // The same register in another bank, or in the same clone set, is no
  // conflict.
  Vs[2].B = Bank::S;
  EXPECT_EQ(colorGraph(Vs, buildInterference(Vs), {}).Status,
            ColorStatus::Colored);
  Vs[2].B = Bank::L;
  Vs[2].CloneRep = 0;
  EXPECT_EQ(colorGraph(Vs, buildInterference(Vs), {}).Status,
            ColorStatus::Colored);
}
