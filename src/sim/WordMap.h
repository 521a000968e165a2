//===- WordMap.h - Paged sparse word-addressed store ------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backing store for sim::Memory's three address spaces. The previous
/// representation was std::map<uint32_t, uint32_t>, which put an O(log n)
/// red-black-tree walk (plus a node allocation per first store) on every
/// word a packet touches — the dominant cost of both the interpreter and
/// the chip model once the fast path removed dispatch overhead.
///
/// WordMap keeps the map's observable semantics but backs the low 2^24
/// words with lazily allocated 4096-word pages plus a presence bitmap, so
/// the hot operations are O(1):
///
///  - operator[] inserts a zero-valued entry on first touch, exactly like
///    std::map::operator[]; get() reads without inserting (the
///    interpreter's non-inserting load);
///  - presence is tracked per word, so an image still compares and
///    iterates entry-for-entry against the sparse map a differential
///    oracle builds (stored zeros included, untouched words absent);
///  - addresses at or above 2^24 — the adversarial generator aims DMA
///    near address-space edges, far beyond any configured space bound —
///    fall back to a std::map overflow so the page table stays <= 4096
///    slots. Every space limit (MemLimits) is <= 2^24 words, so program
///    accesses out there always range-trap; only setup stores land in
///    the overflow.
///
/// Iteration yields (address, value) pairs in ascending address order:
/// dense pages first, then the overflow, whose addresses are all larger
/// by construction.
///
//===----------------------------------------------------------------------===//

#ifndef SIM_WORDMAP_H
#define SIM_WORDMAP_H

#include "support/BinIO.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace nova {
namespace sim {

class WordMap {
  static constexpr unsigned PageShift = 12; ///< 4096 words = 16 KB pages
  static constexpr uint32_t PageWords = 1u << PageShift;
  static constexpr uint32_t PageMask = PageWords - 1;
  static constexpr uint32_t DenseBound = 1u << 24; ///< pages cover [0, 2^24)

  struct Page {
    uint32_t Data[PageWords];
    uint64_t Present[PageWords / 64];
  };

public:
  WordMap() = default;
  WordMap(WordMap &&) = default;
  WordMap &operator=(WordMap &&) = default;
  WordMap(const WordMap &O) { *this = O; }

  WordMap &operator=(const WordMap &O) {
    if (this == &O)
      return *this;
    Count = O.Count;
    Overflow = O.Overflow;
    Pages.clear();
    Pages.resize(O.Pages.size());
    for (size_t I = 0; I != O.Pages.size(); ++I)
      if (O.Pages[I])
        Pages[I] = std::make_unique<Page>(*O.Pages[I]);
    return *this;
  }

  WordMap &operator=(const std::map<uint32_t, uint32_t> &M) {
    clear();
    for (const auto &[A, V] : M)
      (*this)[A] = V;
    return *this;
  }

  /// Inserts a zero-valued entry on first touch, like std::map.
  uint32_t &operator[](uint32_t A) {
    if (A >= DenseBound)
      return Overflow[A];
    size_t PI = A >> PageShift;
    if (PI >= Pages.size())
      Pages.resize(PI + 1);
    std::unique_ptr<Page> &Pg = Pages[PI];
    if (!Pg)
      Pg = std::make_unique<Page>(); // value-initialized: all-zero, all-absent
    uint32_t Slot = A & PageMask;
    uint64_t &W = Pg->Present[Slot >> 6];
    uint64_t Bit = 1ull << (Slot & 63);
    if (!(W & Bit)) {
      W |= Bit;
      Pg->Data[Slot] = 0; // a range-erased slot may hold a stale value
      ++Count;
    }
    return Pg->Data[Slot];
  }

  /// Non-inserting read: absent words are 0 without growing the image.
  uint32_t get(uint32_t A) const {
    if (A < DenseBound) {
      size_t PI = A >> PageShift;
      if (PI >= Pages.size() || !Pages[PI])
        return 0;
      const Page &Pg = *Pages[PI];
      uint32_t Slot = A & PageMask;
      return Pg.Present[Slot >> 6] >> (Slot & 63) & 1 ? Pg.Data[Slot] : 0;
    }
    auto It = Overflow.find(A);
    return It == Overflow.end() ? 0 : It->second;
  }

  bool contains(uint32_t A) const {
    if (A >= DenseBound)
      return Overflow.count(A) != 0;
    size_t PI = A >> PageShift;
    if (PI >= Pages.size() || !Pages[PI])
      return false;
    uint32_t Slot = A & PageMask;
    return Pages[PI]->Present[Slot >> 6] >> (Slot & 63) & 1;
  }

  size_t count(uint32_t A) const { return contains(A) ? 1 : 0; }
  size_t size() const { return Count + Overflow.size(); }
  bool empty() const { return size() == 0; }

  void clear() {
    Pages.clear();
    Overflow.clear();
    Count = 0;
  }

  /// Removes every entry with Lo <= address < HiExclusive (a 64-bit bound
  /// so callers can express "to the end of the address space").
  void eraseRange(uint32_t Lo, uint64_t HiExclusive) {
    uint64_t DenseHi = HiExclusive < DenseBound ? HiExclusive : DenseBound;
    for (uint64_t A = Lo; A < DenseHi;) {
      size_t PI = static_cast<size_t>(A) >> PageShift;
      if (PI >= Pages.size())
        break;
      uint64_t PageEnd = static_cast<uint64_t>(PI + 1) << PageShift;
      Page *Pg = Pages[PI].get();
      if (!Pg) {
        A = PageEnd;
        continue;
      }
      uint64_t Stop = PageEnd < DenseHi ? PageEnd : DenseHi;
      // Clear whole presence words, masked at the range's two ends.
      uint64_t PageBase = PageEnd - PageWords;
      uint32_t Lo = static_cast<uint32_t>(A - PageBase);
      uint32_t Hi = static_cast<uint32_t>(Stop - PageBase); // <= PageWords
      for (uint32_t WI = Lo >> 6; WI << 6 < Hi; ++WI) {
        uint64_t Mask = ~0ull;
        if (WI == Lo >> 6)
          Mask <<= Lo & 63;
        if (Hi - (WI << 6) < 64)
          Mask &= (1ull << (Hi & 63)) - 1;
        uint64_t &W = Pg->Present[WI];
        Count -= static_cast<size_t>(__builtin_popcountll(W & Mask));
        W &= ~Mask;
      }
      A = Stop;
    }
    if (HiExclusive > DenseBound) {
      auto E = HiExclusive > 0xFFFFFFFFull
                   ? Overflow.end()
                   : Overflow.lower_bound(static_cast<uint32_t>(HiExclusive));
      Overflow.erase(Overflow.lower_bound(Lo < DenseBound ? DenseBound : Lo),
                     E);
    }
  }

  class const_iterator {
  public:
    using value_type = std::pair<uint32_t, uint32_t>;
    using reference = const value_type &;
    using pointer = const value_type *;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    reference operator*() const { return Cur; }
    pointer operator->() const { return &Cur; }
    const_iterator &operator++() {
      if (A != DenseBound)
        A = M->nextPresent(A + 1);
      else
        ++OIt;
      load();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator T = *this;
      ++*this;
      return T;
    }
    bool operator==(const const_iterator &O) const {
      return A == O.A && OIt == O.OIt;
    }
    bool operator!=(const const_iterator &O) const { return !(*this == O); }

  private:
    friend class WordMap;
    const_iterator(const WordMap *M, bool End)
        : M(M), A(End ? DenseBound : M->nextPresent(0)),
          OIt(End ? M->Overflow.end() : M->Overflow.begin()) {
      load();
    }
    void load() {
      if (A != DenseBound)
        Cur = {A, M->get(A)};
      else if (OIt != M->Overflow.end())
        Cur = *OIt;
    }
    const WordMap *M = nullptr;
    uint32_t A = DenseBound;
    std::map<uint32_t, uint32_t>::const_iterator OIt;
    value_type Cur = {0, 0};
  };

  const_iterator begin() const { return const_iterator(this, false); }
  const_iterator end() const { return const_iterator(this, true); }

  /// Checkpoint serialization: the ascending (address, value) entry
  /// sequence — the map's entire observable state. Restoring rebuilds
  /// pages by insertion, so internal page-table shape may differ from
  /// the saved instance while iteration, get(), and equality agree
  /// entry-for-entry.
  void saveState(BinWriter &W) const {
    W.u64(size());
    for (const auto &[A, V] : *this) {
      W.u32(A);
      W.u32(V);
    }
  }
  void restoreState(BinReader &R) {
    clear();
    uint64_t N = R.u64();
    for (uint64_t I = 0; I != N && !R.failed(); ++I) {
      uint32_t A = R.u32();
      uint32_t V = R.u32();
      (*this)[A] = V;
    }
  }

private:
  /// First present dense address >= From, or DenseBound when none.
  uint32_t nextPresent(uint32_t From) const {
    uint64_t A = From;
    while (true) {
      size_t PI = static_cast<size_t>(A >> PageShift);
      if (PI >= Pages.size())
        return DenseBound;
      const Page *Pg = Pages[PI].get();
      if (!Pg) {
        A = static_cast<uint64_t>(PI + 1) << PageShift;
        continue;
      }
      uint32_t Slot = static_cast<uint32_t>(A) & PageMask;
      uint32_t WI = Slot >> 6;
      uint64_t W = Pg->Present[WI] & (~0ull << (Slot & 63));
      while (true) {
        if (W)
          return (static_cast<uint32_t>(PI) << PageShift) + (WI << 6) +
                 static_cast<uint32_t>(__builtin_ctzll(W));
        if (++WI == PageWords / 64)
          break;
        W = Pg->Present[WI];
      }
      A = static_cast<uint64_t>(PI + 1) << PageShift;
    }
  }

  std::vector<std::unique_ptr<Page>> Pages; ///< index = address >> PageShift
  std::map<uint32_t, uint32_t> Overflow;    ///< addresses >= DenseBound
  size_t Count = 0;                         ///< present dense entries
};

/// Entry-for-entry equality across any two word stores that iterate
/// (address, value) pairs in ascending order (WordMap, std::map).
template <typename MapA, typename MapB>
bool sameWords(const MapA &A, const MapB &B) {
  if (A.size() != B.size())
    return false;
  auto IA = A.begin();
  auto IB = B.begin();
  for (; IA != A.end(); ++IA, ++IB)
    if (IA->first != IB->first || IA->second != IB->second)
      return false;
  return true;
}

inline bool operator==(const WordMap &A, const WordMap &B) {
  return sameWords(A, B);
}
inline bool operator!=(const WordMap &A, const WordMap &B) {
  return !sameWords(A, B);
}
inline bool operator==(const WordMap &A, const std::map<uint32_t, uint32_t> &B) {
  return sameWords(A, B);
}
inline bool operator==(const std::map<uint32_t, uint32_t> &A, const WordMap &B) {
  return sameWords(A, B);
}
inline bool operator!=(const WordMap &A, const std::map<uint32_t, uint32_t> &B) {
  return !sameWords(A, B);
}
inline bool operator!=(const std::map<uint32_t, uint32_t> &A, const WordMap &B) {
  return !sameWords(A, B);
}

} // namespace sim
} // namespace nova

#endif // SIM_WORDMAP_H
