//===- Timer.h - Wall-clock timing helpers ----------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock stopwatch used to report solver times (Figure 7) and the
/// allocator's phase times.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_TIMER_H
#define SUPPORT_TIMER_H

#include <chrono>
#include <limits>

namespace nova {

/// A stopwatch that starts on construction.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  void reset() { Start = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// Elapsed seconds, then restarts: consecutive laps tile the wall clock.
  double lap() {
    Clock::time_point Now = Clock::now();
    double S = std::chrono::duration<double>(Now - Start).count();
    Start = Now;
    return S;
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// A wall-clock watchdog: a budget in seconds fixed at construction. The
/// degradation ladder hands each rung a Deadline carved out of the user's
/// overall --time-limit, so one hung rung cannot starve the fallbacks
/// below it.
class Deadline {
public:
  /// A deadline that never expires.
  static Deadline never() { return Deadline(Inf()); }

  /// Expires \p Seconds of wall clock from now.
  static Deadline after(double Seconds) { return Deadline(Seconds); }

  /// Seconds left; never negative, infinite for never().
  double remaining() const {
    double Left = Budget - Clock.seconds();
    return Left > 0.0 ? Left : 0.0;
  }

  bool expired() const { return remaining() <= 0.0; }

  /// The full budget this deadline was created with.
  double budget() const { return Budget; }

private:
  static double Inf() { return std::numeric_limits<double>::infinity(); }
  explicit Deadline(double Seconds) : Budget(Seconds) {}

  Timer Clock;
  double Budget;
};

} // namespace nova

#endif // SUPPORT_TIMER_H
