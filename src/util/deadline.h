// Soft deadlines and the stop signal of a walk.
//
// DeadlineExpired is THE expiry predicate, shared by every layer that
// sheds or stops on a soft deadline: the serve-layer dispatch checks
// (ExpiredAt on EstimateOptions, AsyncEngine's pending queues) and, through
// WalkControl, every mid-walk check below the serve layer. One definition
// so the sites cannot drift — the predicate is INCLUSIVE at the deadline
// instant (a request whose deadline equals the check time is already
// expired, matching the documented "expired by dispatch time"); an
// exclusive `>` at one site is exactly the bug this header exists to
// prevent.
//
// WalkControl is the one way to stop a walk: the sampled walk
// (core/sampler), the exact enumeration (core/enumerator) and each plan
// tree (plan/plan_executor) check it BETWEEN steps, never inside a kernel,
// and their callers read its latch afterwards. core/ and plan/ read the
// clock only through it (the WALK_CLOCK rule of tools/check_repo_rules.py).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>

namespace naru {

/// Sentinel for "no deadline": never expires.
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// `from` plus `ms` milliseconds, for relative times that arrive from
/// outside the process (the wire's deadline_ms, a trace's `~<ms>` and
/// `@<ms>` tokens). A sum past the clock's range, +inf and NaN give
/// kNoDeadline — waiting that long is waiting forever — and a sum before
/// its range gives the earliest instant, already expired. Converting such
/// a value directly would overflow the clock's integer tick count.
inline std::chrono::steady_clock::time_point DeadlineAfterMs(
    std::chrono::steady_clock::time_point from, double ms) {
  using Clock = std::chrono::steady_clock;
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double, std::milli>(ms))
                           .count();
  Clock::rep sum = 0;
  if (!(std::fabs(ticks) < 0x1p63) ||
      __builtin_add_overflow(from.time_since_epoch().count(),
                             static_cast<Clock::rep>(ticks), &sum)) {
    return ms < 0 ? Clock::time_point::min() : kNoDeadline;
  }
  return Clock::time_point(Clock::duration(sum));
}

/// True once `now` has reached `deadline` (inclusive). kNoDeadline never
/// expires.
inline bool DeadlineExpired(std::chrono::steady_clock::time_point deadline,
                            std::chrono::steady_clock::time_point now) {
  return deadline != kNoDeadline && now >= deadline;
}

/// The stop signal of one walk, shared by every task that works on it: a
/// deadline plus a monotonic stop latch. The first task to see the
/// deadline expired latches it, and every later check returns true
/// without reading the clock. A walk that is never stopped consumes
/// exactly the draws and arithmetic of an uncontrolled one, because the
/// check touches neither RNG streams nor weights.
class WalkControl {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit WalkControl(TimePoint deadline = kNoDeadline)
      : deadline_(deadline) {}

  WalkControl(const WalkControl&) = delete;
  WalkControl& operator=(const WalkControl&) = delete;

  /// The latest-sharer rule: the deadline of a walk that serves requests
  /// with deadlines `a` and `b`. One walk answers every sharer, so it may
  /// stop only once the last of them has expired — the latest deadline
  /// wins, and a sharer without a deadline (kNoDeadline, the maximum)
  /// disables stopping.
  static TimePoint Join(TimePoint a, TimePoint b) { return std::max(a, b); }

  /// True once the walk should stop. Without a deadline this returns
  /// false and touches neither the latch nor the clock; otherwise it
  /// reads the latch, then the clock, and latches on expiry.
  bool ShouldStop() {
    if (deadline_ == kNoDeadline) return false;
    if (stopped_.load(std::memory_order_relaxed)) return true;
    if (!DeadlineExpired(deadline_, std::chrono::steady_clock::now())) {
      return false;
    }
    stopped_.store(true, std::memory_order_relaxed);
    return true;
  }

  /// True when some ShouldStop() call stopped the walk. Read after the
  /// walk's tasks have joined: the walk's partial sums must be discarded.
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

 private:
  const TimePoint deadline_;
  /// Memory order: RELAXED at every touch. The latch is monotonic
  /// (false -> true, never reset) and publishes no data: a stopped walk's
  /// partial sums are discarded unread, and the results of a walk that
  /// ran to completion are published by the thread pool's completion
  /// edge, not by this flag. A task that sees the latch late merely runs
  /// one more step.
  std::atomic<bool> stopped_{false};
};

}  // namespace naru
