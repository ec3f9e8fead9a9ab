// Unit tests for the utility substrate.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "util/csv.h"
#include "util/deadline.h"
#include "util/env_config.h"
#include "util/quantile.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace naru {
namespace {

TEST(Status, OkAndErrors) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status err = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad arg");
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.ValueOrDie(), 7);

  Result<int> bad(Status::NotFound("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  NARU_ASSIGN_OR_RETURN(int h, Half(x));
  NARU_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(Result, MacroPropagation) {
  EXPECT_EQ(Quarter(8).ValueOrDie(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, UniformDoubleRange) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(11);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(ZipfTable, SkewsTowardSmallIndices) {
  Rng rng(17);
  ZipfTable zipf(100, 1.2);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 10) ++low;
  }
  // With s=1.2 the head holds well over half the mass.
  EXPECT_GT(low, n / 2);
}

TEST(Quantile, ExactQuantiles) {
  QuantileSketch s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_NEAR(s.Quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.95), 95.05, 0.2);
  EXPECT_NEAR(s.Mean(), 50.5, 1e-9);
}

TEST(Quantile, PaperNumberFormatting) {
  EXPECT_EQ(FormatPaperNumber(1.234), "1.23");
  EXPECT_EQ(FormatPaperNumber(152.4), "152");
  EXPECT_EQ(FormatPaperNumber(23456.0), "2e4");
}

TEST(StringUtil, SplitJoinTrim) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(JoinStrings({"x", "y"}, "-"), "x-y");
  EXPECT_EQ(TrimString("  hi \n"), "hi");
  EXPECT_EQ(HumanBytes(13 * 1024 * 1024), "13.0 MB");
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
}

TEST(Csv, ParseQuotedFields) {
  auto fields = ParseCsvLine("a,\"b,c\",\"d\"\"e\"", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
}

TEST(Csv, RoundTripFile) {
  const std::string path = testing::TempDir() + "/naru_csv_test.csv";
  CsvContents contents;
  contents.header = {"id", "name"};
  contents.rows = {{"1", "hello, world"}, {"2", "two"}};
  ASSERT_TRUE(WriteCsvFile(path, contents).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie().rows.size(), 2u);
  EXPECT_EQ(loaded.ValueOrDie().rows[0][1], "hello, world");
  std::remove(path.c_str());
}

TEST(Csv, ArityMismatchIsError) {
  const std::string path = testing::TempDir() + "/naru_csv_bad.csv";
  FILE* f = fopen(path.c_str(), "w");
  fputs("a,b\n1,2\n3\n", f);
  fclose(f);
  auto loaded = ReadCsvFile(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<int> hits(10000, 0);
  ParallelFor(0, hits.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  std::atomic<int> total{0};
  ParallelFor(0, 8, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ParallelFor(0, 100, [&](size_t a, size_t b) {
        total.fetch_add(static_cast<int>(b - a));
      });
    }
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(EnvConfig, ParsesAndDefaults) {
  setenv("NARU_TEST_INT", "42", 1);
  EXPECT_EQ(GetEnvInt("NARU_TEST_INT", 7), 42);
  EXPECT_EQ(GetEnvInt("NARU_TEST_MISSING", 7), 7);
  setenv("NARU_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("NARU_TEST_DBL", 0), 2.5);
  unsetenv("NARU_TEST_INT");
  unsetenv("NARU_TEST_DBL");
}

// The annotated Mutex/MutexLock/CondVar wrappers (util/thread_annotations.h)
// are the only sanctioned sync primitives in src/ (tools/check_repo_rules.py
// NAKED_SYNC) — exercise the whole surface so a wrapper regression cannot
// hide behind the no-op GCC expansion of the annotations.
// try_lock by the owning thread is UB on std::mutex, so held-ness is
// always probed from a second thread here.
bool TryLockFromOtherThread(Mutex* mu) NARU_NO_THREAD_SAFETY_ANALYSIS {
  bool acquired = false;
  std::thread prober([&] {
    acquired = mu->TryLock();
    if (acquired) mu->Unlock();
  });
  prober.join();
  return acquired;
}

TEST(ThreadAnnotations, MutexExcludesAndTryLock) {
  Mutex mu;
  mu.Lock();
  EXPECT_FALSE(TryLockFromOtherThread(&mu));  // held: contender must fail
  mu.Unlock();
  EXPECT_TRUE(TryLockFromOtherThread(&mu));  // released: contender succeeds
}

TEST(ThreadAnnotations, MutexLockGuardsCounterAcrossThreads) {
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(ThreadAnnotations, CondVarWaitSeesNotifiedPredicate) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = -1;
  std::thread waiter([&] {
    mu.Lock();
    // The repo-wide cv idiom: explicit predicate loop, never a lambda
    // predicate (the thread-safety analysis cannot see into lambdas).
    while (!ready) cv.Wait(mu);
    observed = 42;
    mu.Unlock();
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_EQ(observed, 42);
}

TEST(ThreadAnnotations, CondVarWaitUntilTimesOutWithoutNotify) {
  Mutex mu;
  CondVar cv;
  mu.Lock();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  // No notifier exists: WaitUntil must return (timeout) with the lock
  // re-acquired rather than blocking forever.
  cv.WaitUntil(mu, deadline);
  EXPECT_FALSE(TryLockFromOtherThread(&mu));  // lock re-acquired by waiter
  mu.Unlock();
}

// Relative times from outside the process saturate instead of overflowing
// the clock's int64 tick count.
TEST(DeadlineAfterMs, SaturatesAtTheClockRange) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point from = Clock::now();
  const std::chrono::duration<double, std::milli> delta =
      DeadlineAfterMs(from, 250.0) - from;
  EXPECT_NEAR(delta.count(), 250.0, 1e-6);
  for (const double ms : {1e13, 1e300, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(DeadlineAfterMs(from, ms), kNoDeadline) << ms;
  }
  EXPECT_EQ(DeadlineAfterMs(Clock::time_point::max() - std::chrono::hours(1),
                            2 * 3600e3),
            kNoDeadline);
  for (const double ms : {-1e13, -std::numeric_limits<double>::infinity()}) {
    const Clock::time_point past = DeadlineAfterMs(from, ms);
    EXPECT_EQ(past, Clock::time_point::min()) << ms;
    EXPECT_TRUE(DeadlineExpired(past, from));
  }
}

TEST(WalkControl, WithoutDeadlineNeverStops) {
  WalkControl control;
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(control.ShouldStop());
  EXPECT_FALSE(control.stopped());
  WalkControl explicit_none(kNoDeadline);
  EXPECT_FALSE(explicit_none.ShouldStop());
  EXPECT_FALSE(explicit_none.stopped());
}

TEST(WalkControl, PastDeadlineStopsAndStaysStopped) {
  using Clock = std::chrono::steady_clock;
  WalkControl control(Clock::now() - std::chrono::milliseconds(1));
  EXPECT_FALSE(control.stopped());  // latched only by a check
  EXPECT_TRUE(control.ShouldStop());
  EXPECT_TRUE(control.stopped());
  EXPECT_TRUE(control.ShouldStop());  // monotonic: never un-latches

  // A deadline far in the future does not stop a walk.
  WalkControl live(Clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(live.ShouldStop());
  EXPECT_FALSE(live.stopped());
}

TEST(WalkControl, JoinKeepsTheLatestSharerAndNoDeadlineWins) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point early = Clock::now() - std::chrono::seconds(2);
  const Clock::time_point late = Clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(WalkControl::Join(early, late), late);
  EXPECT_EQ(WalkControl::Join(late, early), late);
  EXPECT_EQ(WalkControl::Join(early, kNoDeadline), kNoDeadline);
  EXPECT_EQ(WalkControl::Join(kNoDeadline, late), kNoDeadline);

  // Two expired sharers: the shared walk stops.
  WalkControl expired(WalkControl::Join(early, late));
  EXPECT_TRUE(expired.ShouldStop());
  // One sharer without a deadline keeps the shared walk alive.
  WalkControl pinned(WalkControl::Join(early, kNoDeadline));
  EXPECT_FALSE(pinned.ShouldStop());
}

TEST(WalkControl, EveryThreadSeesAnExpiredControlStop) {
  WalkControl control(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  constexpr size_t kThreads = 4;
  std::vector<int> saw_stop(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&control, &saw_stop, t] {
      bool all = true;
      for (int i = 0; i < 100; ++i) all = control.ShouldStop() && all;
      saw_stop[t] = all ? 1 : 0;
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(saw_stop[t], 1) << t;
  EXPECT_TRUE(control.stopped());
}

}  // namespace
}  // namespace naru
