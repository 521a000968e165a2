//===- BinIO.h - Bounds-checked binary serialization ------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level layer under src/checkpoint: a little-endian append
/// writer, a bounds-checked reader that latches failure instead of
/// reading past the end, and the FNV-1a-64 checksum the checkpoint file
/// format seals payloads with. It lives in support so that sim, fastpath,
/// chip, and soak can each serialize their own state (saveState /
/// restoreState members) without depending on the checkpoint subsystem —
/// checkpoint owns only the file format and directory policy.
///
/// Encoding rules: fixed-width little-endian integers, doubles as their
/// IEEE-754 bit pattern, strings and vectors as a u64 count followed by
/// elements. A reader whose input is truncated or malformed never traps:
/// every accessor returns a zero value once failed() latches, so callers
/// validate once at the end instead of after every field. Callers latch
/// it themselves (fail()) for bytes that decode but describe an
/// impossible state.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_BINIO_H
#define SUPPORT_BINIO_H

#include "support/Status.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace nova {

/// FNV-1a-64 over a byte range, seedable for incremental folding.
inline uint64_t fnv1a64(const void *Data, size_t Len,
                        uint64_t H = 0xcbf29ce484222325ull) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Append-only little-endian encoder. Backing storage is a std::string
/// so payloads hand off to file writers without a copy.
class BinWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void b(bool V) { u8(V ? 1 : 0); }
  void u32(uint32_t V) {
    for (unsigned I = 0; I != 4; ++I)
      u8(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      u8(static_cast<uint8_t>(V >> (8 * I)));
  }
  void f64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V), "IEEE-754 double expected");
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u64(S.size());
    Buf.append(S);
  }
  void vec32(const std::vector<uint32_t> &V) {
    u64(V.size());
    for (uint32_t X : V)
      u32(X);
  }
  void vec64(const std::vector<uint64_t> &V) {
    u64(V.size());
    for (uint64_t X : V)
      u64(X);
  }

  const std::string &bytes() const { return Buf; }
  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
};

/// Bounds-checked decoder over a byte range the caller keeps alive.
/// Reading past the end (or an element count the remaining bytes cannot
/// hold) latches failed() and yields zero values from then on.
class BinReader {
public:
  BinReader(const void *Data, size_t Len)
      : P(static_cast<const unsigned char *>(Data)), Len(Len) {}
  explicit BinReader(const std::string &S) : BinReader(S.data(), S.size()) {}

  bool failed() const { return Fail; }
  size_t remaining() const { return Len - Pos; }
  /// Latches failure from outside: a caller that decodes well-formed
  /// bytes into a value its state cannot hold (an index out of range, a
  /// broken invariant) rejects the payload the same way truncation
  /// does, so one failed() check at the end covers both.
  void fail() { Fail = true; }

  uint8_t u8() {
    if (!take(1))
      return 0;
    return P[Pos - 1];
  }
  bool b() { return u8() != 0; }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (unsigned I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(P[Pos - 4 + I]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (unsigned I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(P[Pos - 8 + I]) << (8 * I);
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  std::string str() {
    uint64_t N = u64();
    if (!take(N))
      return std::string();
    return std::string(reinterpret_cast<const char *>(P + Pos - N),
                       static_cast<size_t>(N));
  }
  std::vector<uint32_t> vec32() {
    uint64_t N = u64();
    if (Fail || N > remaining() / 4) {
      Fail = true;
      return {};
    }
    std::vector<uint32_t> V(static_cast<size_t>(N));
    for (uint64_t I = 0; I != N; ++I)
      V[static_cast<size_t>(I)] = u32();
    return V;
  }
  std::vector<uint64_t> vec64() {
    uint64_t N = u64();
    if (Fail || N > remaining() / 8) {
      Fail = true;
      return {};
    }
    std::vector<uint64_t> V(static_cast<size_t>(N));
    for (uint64_t I = 0; I != N; ++I)
      V[static_cast<size_t>(I)] = u64();
    return V;
  }

private:
  bool take(uint64_t N) {
    if (Fail || N > Len - Pos) {
      Fail = true;
      return false;
    }
    Pos += static_cast<size_t>(N);
    return true;
  }

  const unsigned char *P = nullptr;
  size_t Len = 0;
  size_t Pos = 0;
  bool Fail = false;
};

/// Status round-trip: serialized so an in-flight packet's trap detail
/// survives a checkpoint bit-for-bit (trap messages land in reports).
inline void saveStatus(BinWriter &W, const Status &S) {
  W.u8(static_cast<uint8_t>(S.code()));
  W.u8(static_cast<uint8_t>(S.phase()));
  W.str(S.message());
  W.u64(S.hints().size());
  for (const std::string &H : S.hints())
    W.str(H);
}

inline Status restoreStatus(BinReader &R) {
  uint8_t Code = R.u8();
  uint8_t Ph = R.u8();
  std::string Msg = R.str();
  uint64_t NumHints = R.u64();
  Status S;
  if (Code != static_cast<uint8_t>(StatusCode::Ok))
    S = Status::error(static_cast<StatusCode>(Code), static_cast<Phase>(Ph),
                      std::move(Msg));
  for (uint64_t I = 0; I != NumHints && !R.failed(); ++I)
    S.addHint(R.str());
  return S;
}

} // namespace nova

#endif // SUPPORT_BINIO_H
