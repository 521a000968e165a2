//===- wordmap_test.cpp - sim::WordMap against std::map -------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// sim::WordMap promises std::map<uint32_t, uint32_t> semantics over a
// paged representation: inserting operator[], a non-inserting get(),
// range erase, size(), and ascending iteration. A seeded differential
// drives both through the same random operations — range erases with
// unaligned, single-word, whole-word and cross-page bounds among them —
// and compares them after every step. The chip scrubs every packet slot
// with eraseRange, so a miscounted or misplaced erase shows up here
// before it shows up as a wrong trace hash.
//
//===----------------------------------------------------------------------===//

#include "sim/WordMap.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace nova;

namespace {

using RefMap = std::map<uint32_t, uint32_t>;

constexpr uint32_t PageWords = 4096;
constexpr uint32_t DenseBound = 1u << 24;

void refErase(RefMap &M, uint32_t Lo, uint64_t Hi) {
  auto E = Hi > 0xFFFFFFFFull ? M.end()
                              : M.lower_bound(static_cast<uint32_t>(Hi));
  M.erase(M.lower_bound(Lo), E);
}

void expectSame(const sim::WordMap &W, const RefMap &M) {
  ASSERT_EQ(W.size(), M.size());
  auto It = M.begin();
  for (const auto &[A, V] : W) {
    ASSERT_NE(It, M.end());
    ASSERT_EQ(A, It->first);
    ASSERT_EQ(V, It->second) << "at address " << A;
    ++It;
  }
  EXPECT_EQ(It, M.end());
}

/// A random address: mostly in the first few pages, sometimes next to
/// the dense bound or in the overflow above it.
uint32_t randomAddr(std::mt19937_64 &Rng) {
  switch (Rng() % 8) {
  case 0:
    return DenseBound - 1 - static_cast<uint32_t>(Rng() % 200);
  case 1:
    return DenseBound + static_cast<uint32_t>(Rng() % 200);
  default:
    return static_cast<uint32_t>(Rng() % (5 * PageWords));
  }
}

/// A random erase range [Lo, Hi), cycling through the shapes that hit
/// different paths of the word-wide scrub.
std::pair<uint32_t, uint64_t> randomRange(std::mt19937_64 &Rng) {
  uint32_t Lo = randomAddr(Rng);
  switch (Rng() % 6) {
  case 0: // one word
    return {Lo, uint64_t(Lo) + 1};
  case 1: // inside one 64-bit presence word
    return {Lo, uint64_t(Lo) + 1 + Rng() % (64 - (Lo & 63))};
  case 2: // aligned whole presence words
    Lo &= ~63u;
    return {Lo, uint64_t(Lo) + 64 * (1 + Rng() % 8)};
  case 3: // across a page boundary
    Lo = (Lo | (PageWords - 1)) - static_cast<uint32_t>(Rng() % 100);
    return {Lo, uint64_t(Lo) + 1 + Rng() % (2 * PageWords)};
  case 4: // to the end of the address space
    return {Lo, uint64_t(1) << 32};
  default: // unaligned, up to a few pages
    return {Lo, uint64_t(Lo) + Rng() % (3 * PageWords)};
  }
}

} // namespace

TEST(WordMap, MatchesStdMapUnderRandomOps) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    SCOPED_TRACE(testing::Message() << "seed " << Seed);
    std::mt19937_64 Rng(Seed);
    sim::WordMap W;
    RefMap M;
    for (unsigned Step = 0; Step != 3000; ++Step) {
      unsigned Op = Rng() % 10;
      if (Op < 5) {
        uint32_t A = randomAddr(Rng);
        uint32_t V = static_cast<uint32_t>(Rng());
        W[A] = V;
        M[A] = V;
      } else if (Op < 7) {
        uint32_t A = randomAddr(Rng);
        auto It = M.find(A);
        ASSERT_EQ(W.get(A), It == M.end() ? 0u : It->second);
        ASSERT_EQ(W.contains(A), It != M.end());
      } else if (Op < 9) {
        auto [Lo, Hi] = randomRange(Rng);
        W.eraseRange(Lo, Hi);
        refErase(M, Lo, Hi);
        ASSERT_EQ(W.size(), M.size()) << "erase [" << Lo << ", " << Hi << ")";
      } else {
        // Inserting read of a possibly erased word: it reads 0, never a
        // value left behind in the page.
        uint32_t A = randomAddr(Rng);
        ASSERT_EQ(W[A], M[A]);
      }
    }
    expectSame(W, M);
  }
}

TEST(WordMap, ReTouchedErasedWordReadsZero) {
  sim::WordMap W;
  for (uint32_t A = 100; A != 300; ++A)
    W[A] = 0xDEAD0000u + A;
  W.eraseRange(130, 260);
  EXPECT_EQ(W.size(), 70u);
  EXPECT_EQ(W.get(200), 0u);
  EXPECT_FALSE(W.contains(200));
  EXPECT_EQ(W[200], 0u); // inserting read: present again, as zero
  EXPECT_TRUE(W.contains(200));
  EXPECT_EQ(W.size(), 71u);
  EXPECT_EQ(W.get(129), 0xDEAD0000u + 129);
  EXPECT_EQ(W.get(260), 0xDEAD0000u + 260);
}

TEST(WordMap, EraseRangeCountsWholePagesAndEnds) {
  sim::WordMap W;
  RefMap M;
  // Three full pages plus a stray word on each side.
  for (uint32_t A = PageWords - 1; A != 4 * PageWords + 1; ++A) {
    W[A] = A;
    M[A] = A;
  }
  // Bounds that are not multiples of 64 on either side, crossing two
  // page boundaries.
  W.eraseRange(PageWords + 37, 3 * PageWords + 91);
  refErase(M, PageWords + 37, 3 * PageWords + 91);
  expectSame(W, M);
  // An empty range and a range over absent pages change nothing.
  W.eraseRange(500, 500);
  W.eraseRange(10 * PageWords, 12 * PageWords);
  expectSame(W, M);
  W.eraseRange(0, uint64_t(1) << 32);
  EXPECT_TRUE(W.empty());
}
