// Tests for the streaming serving surface (serve/async_engine.h) and the
// size-aware LRU result caches (serve/lru_cache.h). The async contract
// under test: Submit() results are bit-identical to the sequential
// per-query path for a fixed seed — across engine thread counts,
// micro-batch sizes, max-wait deadlines, concurrent submitters, and LRU
// eviction histories.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "query/workload.h"
#include "serve/async_engine.h"
#include "serve/lru_cache.h"
#include "serve/request.h"

namespace naru {
namespace {

Table SmallTable(uint64_t seed) {
  return MakeRandomTable(600, {7, 5, 9, 4, 6}, seed, /*skew=*/1.0);
}

std::unique_ptr<MadeModel> SmallTrainedModel(const Table& table,
                                             uint64_t seed) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {24, 24};
  cfg.encoder.onehot_threshold = 16;
  cfg.seed = seed;
  auto model = std::make_unique<MadeModel>(
      std::vector<size_t>{7, 5, 9, 4, 6}, cfg);
  TrainerConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 128;
  Trainer(model.get(), tcfg).Train(table);
  return model;
}

// The estimate a default-option submission resolved to. Default options
// carry no deadline, so the result must be OK.
double EstimateOf(std::future<EstimateResult>* future) {
  const EstimateResult r = future->get();
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  return r.estimate;
}

std::vector<Query> AsyncQueries(const Table& table, uint64_t seed) {
  WorkloadConfig wcfg;
  wcfg.num_queries = 20;
  wcfg.min_filters = 1;
  wcfg.max_filters = 5;
  wcfg.seed = seed;
  std::vector<Query> queries = GenerateWorkload(table, wcfg);
  // Duplicates and an all-wildcard query exercise coalescing and the
  // exact shortcuts through the async path too.
  queries.push_back(queries[0]);
  queries.push_back(queries[3]);
  std::vector<ValueSet> all;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    all.push_back(ValueSet::All(table.column(c).DomainSize()));
  }
  queries.emplace_back(all);
  return queries;
}

TEST(LruResultCache, EvictsLeastRecentlyUsedWithinBudget) {
  LruResultCache cache;
  const std::string a(10, 'a'), b(10, 'b'), c(10, 'c');
  const size_t entry = LruResultCache::EntryBytes(a);
  const size_t budget = 2 * entry;  // room for exactly two entries

  EXPECT_EQ(cache.Insert(a, 1.0, budget), 0u);
  EXPECT_EQ(cache.Insert(b, 2.0, budget), 0u);
  EXPECT_EQ(cache.bytes(), 2 * entry);

  // Touch `a` so `b` becomes least recently used, then overflow.
  double v = 0;
  ASSERT_TRUE(cache.Lookup(a, &v));
  EXPECT_EQ(v, 1.0);
  EXPECT_EQ(cache.Insert(c, 3.0, budget), 1u);  // evicts b
  EXPECT_FALSE(cache.Lookup(b, &v));
  ASSERT_TRUE(cache.Lookup(a, &v));
  ASSERT_TRUE(cache.Lookup(c, &v));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes(), budget);
}

TEST(LruResultCache, RefreshUpdatesValueWithoutGrowth) {
  LruResultCache cache;
  const std::string key = "key";
  cache.Insert(key, 1.0, 1 << 20);
  const size_t bytes = cache.bytes();
  cache.Insert(key, 2.0, 1 << 20);
  EXPECT_EQ(cache.bytes(), bytes);
  EXPECT_EQ(cache.entries(), 1u);
  double v = 0;
  ASSERT_TRUE(cache.Lookup(key, &v));
  EXPECT_EQ(v, 2.0);
}

TEST(LruResultCache, OversizedEntryIsEvictedImmediately) {
  LruResultCache cache;
  const std::string huge(4096, 'x');
  EXPECT_EQ(cache.Insert(huge, 1.0, 64), 1u);  // larger than the budget
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(LruResultCache, ClearResetsEverything) {
  LruResultCache cache;
  cache.Insert("a", 1.0, 64);
  cache.Insert(std::string(128, 'b'), 2.0, 64);
  EXPECT_GT(cache.evictions(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(AsyncEngine, SubmitBitIdenticalToSequentialAcrossConfigs) {
  Table table = SmallTable(3);
  auto model = SmallTrainedModel(table, 3);
  const auto queries = AsyncQueries(table, 61);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 200;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  std::vector<double> sequential;
  for (const auto& q : queries) {
    sequential.push_back(est.EstimateSelectivity(q));
  }

  struct Config {
    size_t threads, max_batch;
    double max_wait_ms;
  };
  // Extremes on every axis: strictly serial / singleton batches / zero
  // deadline, and wide pools / full coalescing / long deadlines.
  const std::vector<Config> grid = {
      {1, 1, 0.0}, {2, 3, 1.0}, {4, 64, 5.0}, {2, 64, 0.0}};
  for (const Config& c : grid) {
    AsyncEngineConfig acfg;
    acfg.max_batch_size = c.max_batch;
    acfg.max_wait_ms = c.max_wait_ms;
    acfg.engine.num_threads = c.threads;
    AsyncEngine engine(acfg);
    std::vector<std::future<EstimateResult>> futures;
    for (const auto& q : queries) {
      futures.push_back(engine.Submit(&est, EstimateRequest(q)));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(EstimateOf(&futures[i]), sequential[i])
          << "query " << i << " threads=" << c.threads
          << " max_batch=" << c.max_batch << " wait=" << c.max_wait_ms;
    }
    // Futures resolve before the dispatcher bumps `completed`; Drain's
    // watermark is the ordering guarantee the counters need.
    engine.Drain();
    const auto stats = engine.async_stats();
    EXPECT_EQ(stats.submitted, queries.size());
    EXPECT_EQ(stats.completed, queries.size());
    EXPECT_GE(stats.batches, 1u);
  }
}

TEST(AsyncEngine, DeadlineFlushFiresWithoutFurtherSubmissions) {
  Table table = SmallTable(5);
  auto model = SmallTrainedModel(table, 5);
  const auto queries = AsyncQueries(table, 67);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 100;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 1000;  // never fills: only the deadline can flush
  acfg.max_wait_ms = 5.0;
  acfg.engine.num_threads = 2;
  AsyncEngine engine(acfg);

  auto f0 = engine.Submit(&est, EstimateRequest(queries[0]));
  auto f1 = engine.Submit(&est, EstimateRequest(queries[1]));
  // No Drain, no further submissions: the max-wait deadline must flush.
  EXPECT_EQ(EstimateOf(&f0), est.EstimateSelectivity(queries[0]));
  EXPECT_EQ(EstimateOf(&f1), est.EstimateSelectivity(queries[1]));
  EXPECT_GE(engine.async_stats().deadline_flushes, 1u);
}

TEST(AsyncEngine, OnCompleteCallbackSeesTheResult) {
  Table table = SmallTable(7);
  auto model = SmallTrainedModel(table, 7);
  const auto queries = AsyncQueries(table, 71);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 100;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngine engine(AsyncEngineConfig{.max_batch_size = 4});
  double callback_value = -1.0;
  auto fut = engine.Submit(
      &est, EstimateRequest(queries[0]),
      [&](const EstimateResult& r) { callback_value = r.estimate; });
  const double sel = EstimateOf(&fut);  // sequences the callback's write
  EXPECT_EQ(callback_value, sel);
  EXPECT_EQ(sel, est.EstimateSelectivity(queries[0]));
}

TEST(AsyncEngine, ConcurrentSubmittersStayBitIdentical) {
  Table table = SmallTable(11);
  auto model = SmallTrainedModel(table, 11);
  const auto queries = AsyncQueries(table, 73);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 150;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  std::vector<double> sequential;
  for (const auto& q : queries) {
    sequential.push_back(est.EstimateSelectivity(q));
  }

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 8;
  acfg.max_wait_ms = 1.0;
  acfg.engine.num_threads = 2;
  AsyncEngine engine(acfg);

  constexpr size_t kSubmitters = 4;
  constexpr size_t kRounds = 3;
  std::vector<std::vector<std::future<EstimateResult>>> futures(kSubmitters);
  {
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (size_t r = 0; r < kRounds; ++r) {
          for (const auto& q : queries) {
            futures[t].push_back(engine.Submit(&est, EstimateRequest(q)));
          }
        }
      });
    }
    for (auto& th : submitters) th.join();
  }
  engine.Drain();

  const auto stats = engine.async_stats();
  EXPECT_EQ(stats.submitted, kSubmitters * kRounds * queries.size());
  EXPECT_EQ(stats.completed, stats.submitted);
  for (size_t t = 0; t < kSubmitters; ++t) {
    for (size_t i = 0; i < futures[t].size(); ++i) {
      EXPECT_EQ(EstimateOf(&futures[t][i]), sequential[i % queries.size()])
          << "submitter " << t << " request " << i;
    }
  }
}

TEST(AsyncEngine, LruBudgetHonoredUnderConcurrentSubmit) {
  Table table = SmallTable(13);
  auto model = SmallTrainedModel(table, 13);
  const auto queries = AsyncQueries(table, 79);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 100;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  std::vector<double> sequential;
  for (const auto& q : queries) {
    sequential.push_back(est.EstimateSelectivity(q));
  }

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 4;
  acfg.max_wait_ms = 0.5;
  acfg.engine.num_threads = 2;
  // A budget far below the workload's footprint: most inserts must evict.
  acfg.engine.cache_budget_bytes = 3 * LruResultCache::kEntryOverheadBytes;
  AsyncEngine engine(acfg);

  constexpr size_t kSubmitters = 3;
  std::vector<std::vector<std::future<EstimateResult>>> futures(kSubmitters);
  {
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (size_t r = 0; r < 2; ++r) {
          for (const auto& q : queries) {
            futures[t].push_back(engine.Submit(&est, EstimateRequest(q)));
          }
        }
      });
    }
    for (auto& th : submitters) th.join();
  }
  engine.Drain();

  // Eviction churned the caches but never changed a value...
  for (size_t t = 0; t < kSubmitters; ++t) {
    for (size_t i = 0; i < futures[t].size(); ++i) {
      ASSERT_EQ(EstimateOf(&futures[t][i]), sequential[i % queries.size()])
          << "submitter " << t << " request " << i;
    }
  }
  // ...and the byte budget held throughout (occupancy is a live snapshot;
  // it can only ever be at or under budget because Insert evicts before
  // returning).
  const auto stats = engine.engine()->stats();
  EXPECT_GT(stats.memo_evictions, 0u);
  EXPECT_LE(stats.memo_bytes, acfg.engine.cache_budget_bytes);
}

// Satellite of the plan-layer PR: a query submitted while its identical
// twin is pending (queued or mid-walk) joins the twin's computation
// instead of recomputing — futures and callbacks all resolve to the one
// deterministic result, and Drain still accounts for every submission.
TEST(AsyncEngine, InFlightDuplicatesJoinTheirTwin) {
  Table table = SmallTable(19);
  auto model = SmallTrainedModel(table, 19);
  const auto queries = AsyncQueries(table, 89);
  const Query& hot = queries[0];

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 400;  // slow enough that twins overlap in flight
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);
  const double want = est.EstimateSelectivity(hot);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 1;  // every primary dispatches alone
  acfg.max_wait_ms = 0.0;
  acfg.engine.num_threads = 2;
  acfg.engine.cache_budget_bytes = 0;  // joining, not the memo, must dedup
  AsyncEngine engine(acfg);

  std::atomic<size_t> callbacks{0};
  std::vector<std::future<EstimateResult>> futures;
  const size_t kCopies = 24;
  for (size_t i = 0; i < kCopies; ++i) {
    futures.push_back(engine.Submit(
        &est, EstimateRequest(hot),
        [&](const EstimateResult&) { ++callbacks; }));
  }
  engine.Drain();

  for (auto& f : futures) EXPECT_EQ(EstimateOf(&f), want);
  EXPECT_EQ(callbacks.load(), kCopies);  // every duplicate's callback fired

  const auto stats = engine.async_stats();
  EXPECT_EQ(stats.submitted, kCopies);
  EXPECT_EQ(stats.completed, kCopies);  // joiners count toward Drain
  // The first copy computes; while it is queued or walking, later copies
  // join it. (A copy submitted in the gap after a delivery starts a new
  // primary, so the exact join count is timing-dependent — but with 24
  // rapid submissions of a slow query, some must have joined.)
  EXPECT_GT(stats.joined_duplicates, 0u);
  EXPECT_LT(stats.batches, kCopies);

  // Distinct queries never join each other.
  auto fa = engine.Submit(&est, EstimateRequest(queries[1]));
  auto fb = engine.Submit(&est, EstimateRequest(queries[2]));
  EXPECT_EQ(EstimateOf(&fa), est.EstimateSelectivity(queries[1]));
  EXPECT_EQ(EstimateOf(&fb), est.EstimateSelectivity(queries[2]));
}

// Drain must cover every pre-Drain submission even while another thread
// keeps joining duplicates to in-flight queries: joiner deliveries land
// out of FIFO order, so the watermark has to be counted in primaries
// (queue entries), not total submissions — a total-count watermark can be
// reached by joiner inflation while later pre-Drain queries still wait.
TEST(AsyncEngine, DrainCoversPendingWorkDespiteConcurrentJoins) {
  Table table = SmallTable(21);
  auto model = SmallTrainedModel(table, 21);
  const auto queries = AsyncQueries(table, 91);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 300;  // slow enough that joins overlap the drain
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 1;
  acfg.max_wait_ms = 0.0;
  acfg.engine.cache_budget_bytes = 0;
  AsyncEngine engine(acfg);

  std::vector<std::future<EstimateResult>> futures;
  for (size_t i = 0; i < 5; ++i) {
    futures.push_back(engine.Submit(&est, EstimateRequest(queries[i])));
  }
  // A side thread floods duplicates of the first query while we drain.
  std::atomic<bool> stop{false};
  std::thread joiner([&] {
    while (!stop.load()) engine.Submit(&est, EstimateRequest(queries[0]));
  });
  engine.Drain();
  // Every pre-Drain future must be ready the moment Drain returns.
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "query " << i << " not delivered by Drain";
  }
  stop.store(true);
  joiner.join();
  engine.Drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(EstimateOf(&futures[i]), est.EstimateSelectivity(queries[i]));
  }
}

// Shutdown-path race: the destructor runs while submissions are still
// pending and mid-walk. ~AsyncEngine's contract is "deliver everything
// already accepted, then join the dispatcher" — so every future obtained
// before destruction must be ready the instant the destructor returns,
// carrying its real (bit-identical) result rather than a broken promise.
// Multiple submitter threads racing each other right up to the
// destruction point exercise the stop_/drain handshake from both sides;
// under TSan this is the test that instruments destructor-vs-Submit.
TEST(AsyncEngine, DestructorDeliversEverythingSubmittedBeforeIt) {
  Table table = SmallTable(33);
  auto model = SmallTrainedModel(table, 33);
  const auto queries = AsyncQueries(table, 53);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 300;  // slow walks: destruction lands mid-flight
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  std::vector<double> sequential;
  sequential.reserve(queries.size());
  for (const auto& q : queries) {
    sequential.push_back(est.EstimateSelectivity(q));
  }

  constexpr size_t kSubmitters = 3;
  std::vector<std::vector<std::future<EstimateResult>>> futures(kSubmitters);
  {
    AsyncEngineConfig acfg;
    acfg.max_batch_size = 4;
    acfg.max_wait_ms = 0.5;
    acfg.engine.cache_budget_bytes = 0;
    AsyncEngine engine(acfg);

    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        futures[t].reserve(queries.size());
        for (const auto& q : queries) {
          futures[t].push_back(engine.Submit(&est, EstimateRequest(q)));
        }
      });
    }
    // Submit() on a destroyed engine is outside any contract, so the
    // threads must be joined first — but nothing waits on the futures:
    // the destructor fires while essentially all walks are queued or
    // mid-batch on the dispatcher.
    for (auto& th : submitters) th.join();
  }  // ~AsyncEngine races the dispatcher + worker pool here.

  for (size_t t = 0; t < kSubmitters; ++t) {
    ASSERT_EQ(futures[t].size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(futures[t][i].wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "submitter " << t << " query " << i
          << " not delivered by the destructor";
      EXPECT_EQ(EstimateOf(&futures[t][i]), sequential[i])
          << "submitter " << t << " query " << i;
    }
  }
}

// Typed submissions agree bit-for-bit with the sequential path, and typed
// results carry provenance and queue/compute latency attribution.
TEST(AsyncEngine, TypedSubmitAgreesWithSequential) {
  Table table = SmallTable(23);
  auto model = SmallTrainedModel(table, 23);
  const auto queries = AsyncQueries(table, 95);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 150;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 8;
  acfg.max_wait_ms = 1.0;
  acfg.engine.num_threads = 2;
  AsyncEngine engine(acfg);

  std::vector<std::future<EstimateResult>> typed;
  for (const auto& q : queries) {
    typed.push_back(engine.Submit(&est, EstimateRequest(q)));
  }
  engine.Drain();
  for (size_t i = 0; i < queries.size(); ++i) {
    const EstimateResult r = typed[i].get();
    const double want = est.EstimateSelectivity(queries[i]);
    ASSERT_TRUE(r.ok()) << "query " << i;
    EXPECT_EQ(r.estimate, want) << "query " << i;
    EXPECT_NE(r.provenance, ResultProvenance::kUnknown);
    EXPECT_GE(r.queue_ms, 0.0);
    EXPECT_GE(r.compute_ms, 0.0);
  }
}

// Satellite of the typed-API redesign: the dispatcher flushes by priority
// class, not FIFO. A high-priority request submitted AFTER a low-priority
// one must be dispatched (and complete) before it whenever the dispatcher
// is backlogged.
TEST(AsyncEngine, HighPriorityFlushesBeforeEarlierLowPriority) {
  Table table = SmallTable(29);
  auto model = SmallTrainedModel(table, 29);
  const auto queries = AsyncQueries(table, 97);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 200;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 1;  // one request per flush: order is observable
  acfg.max_wait_ms = 0.0;
  acfg.engine.num_threads = 2;
  acfg.engine.cache_budget_bytes = 0;
  AsyncEngine engine(acfg);

  std::mutex mu;
  std::vector<std::string> completion_order;
  const auto record = [&](const char* name) {
    return [&, name](const EstimateResult&) {
      std::lock_guard<std::mutex> lock(mu);
      completion_order.emplace_back(name);
    };
  };

  // A heavy blocker occupies the dispatcher (per-request budget makes it
  // slow); the low- and high-priority requests are submitted only once it
  // is mid-walk, so they must land in later flushes, cut by priority.
  EstimateRequest blocker(queries[0]);
  blocker.options.num_samples = 30000;
  auto f_blocker = engine.Submit(&est, std::move(blocker), record("blocker"));
  while (engine.async_stats().batches == 0) {
    std::this_thread::yield();
  }
  EstimateRequest low(queries[1]);
  low.options.priority = RequestPriority::kLow;
  auto f_low = engine.Submit(&est, std::move(low), record("low"));
  EstimateRequest high(queries[2]);
  high.options.priority = RequestPriority::kHigh;
  auto f_high = engine.Submit(&est, std::move(high), record("high"));
  // Wait on the futures, NOT Drain(): an active drain deliberately
  // reverts flushing to FIFO-by-arrival (its no-starvation guarantee),
  // which would hide exactly the priority ordering under test.
  const EstimateResult r_blocker = f_blocker.get();
  const EstimateResult r_low = f_low.get();
  const EstimateResult r_high = f_high.get();

  ASSERT_EQ(completion_order.size(), 3u);
  size_t low_at = 0, high_at = 0;
  for (size_t i = 0; i < completion_order.size(); ++i) {
    if (completion_order[i] == "low") low_at = i;
    if (completion_order[i] == "high") high_at = i;
  }
  EXPECT_LT(high_at, low_at) << "high priority did not jump the queue";
  EXPECT_GE(engine.async_stats().priority_flushes, 1u);

  // Priority is a scheduling knob only: every estimate is still the
  // sequential one (the blocker under its per-request budget).
  EstimateOptions heavy;
  heavy.num_samples = 30000;
  EXPECT_EQ(r_blocker.estimate, est.Estimate(queries[0], heavy).estimate);
  EXPECT_EQ(r_low.estimate, est.EstimateSelectivity(queries[1]));
  EXPECT_EQ(r_high.estimate, est.EstimateSelectivity(queries[2]));
}

// Satellite: expired deadlines shed with a typed DEADLINE_EXCEEDED result
// — resolved futures, never blocked Drains or crashes — while live
// requests in the same micro-batches stay bit-identical.
TEST(AsyncEngine, ExpiredDeadlinesShedTypedResults) {
  Table table = SmallTable(31);
  auto model = SmallTrainedModel(table, 31);
  const auto queries = AsyncQueries(table, 101);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 150;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 4;
  acfg.max_wait_ms = 0.5;
  acfg.engine.num_threads = 2;
  AsyncEngine engine(acfg);

  std::vector<std::future<EstimateResult>> futures;
  std::vector<uint8_t> expired;
  for (size_t round = 0; round < 2; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EstimateRequest request(queries[i]);
      const bool expire = (i % 3) == 1;
      if (expire) {
        request.options.deadline = EstimateOptions::DeadlineInMs(-5.0);
      }
      expired.push_back(expire ? 1 : 0);
      futures.push_back(engine.Submit(&est, std::move(request)));
    }
  }
  engine.Drain();

  size_t shed = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i << " not resolved by Drain";
    const EstimateResult r = futures[i].get();
    if (expired[i]) {
      EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
          << "request " << i;
      EXPECT_TRUE(std::isnan(r.estimate));
      EXPECT_EQ(r.provenance, ResultProvenance::kShed);
      ++shed;
    } else {
      ASSERT_TRUE(r.ok()) << "request " << i;
      EXPECT_EQ(r.estimate,
                est.EstimateSelectivity(queries[i % queries.size()]));
    }
  }
  EXPECT_GT(shed, 0u);
  const EngineStats stats = engine.engine()->stats();
  EXPECT_EQ(stats.shed_deadline, shed);
  EXPECT_EQ(stats.results_shed, shed);
}

// Drain must not be starved by ongoing higher-priority traffic: while a
// drain is active, flushes revert to FIFO-by-arrival, so a pre-Drain
// low-priority request completes even under a sustained high-priority
// flood.
TEST(AsyncEngine, DrainCompletesLowPriorityDespiteHighPriorityFlood) {
  Table table = SmallTable(37);
  auto model = SmallTrainedModel(table, 37);
  const auto queries = AsyncQueries(table, 103);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 150;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 2;  // narrow flushes: priority order would matter
  acfg.max_wait_ms = 0.0;
  acfg.engine.num_threads = 2;
  acfg.engine.cache_budget_bytes = 0;  // every flood request costs a walk
  AsyncEngine engine(acfg);

  EstimateRequest low(queries[0]);
  low.options.priority = RequestPriority::kLow;
  auto f_low = engine.Submit(&est, std::move(low));

  // A side thread floods high-priority requests (cycling queries so the
  // in-flight join cannot collapse them into one computation) for the
  // whole duration of the drain.
  std::atomic<bool> stop{false};
  std::thread flood([&] {
    size_t i = 1;
    while (!stop.load()) {
      EstimateRequest high(queries[i++ % queries.size()]);
      high.options.priority = RequestPriority::kHigh;
      engine.Submit(&est, std::move(high));
    }
  });
  engine.Drain();
  // The pre-Drain low-priority future must be ready the moment Drain
  // returns — the flood cannot push it past the barrier.
  EXPECT_EQ(f_low.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  stop.store(true);
  flood.join();
  engine.Drain();
  EXPECT_EQ(f_low.get().estimate, est.EstimateSelectivity(queries[0]));
}

// Parks the dispatcher thread inside a request's on_complete callback
// until released — the deterministic way to stage a known queue state
// (fill queues, register a Drain, ...) while the dispatcher cannot cut.
struct DispatcherHostage {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<bool> entered{false};

  std::function<void(const EstimateResult&)> Callback() {
    return [this](const EstimateResult&) {
      entered.store(true);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return released; });
    };
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

// Tentpole of the overload-safety PR: with max_pending set, a full queue
// sheds the LOWEST pending priority class first (oldest request of that
// class), rejects an incoming request only when it is itself lowest, and
// never admission-sheds a higher class while a lower one has pending
// work. Shed results are typed RESOURCE_EXHAUSTED; the queue depth never
// exceeds the bound; survivors stay bit-identical.
TEST(AsyncEngine, AdmissionControlShedsLowestClassFirstAndBoundsQueue) {
  Table table = SmallTable(41);
  auto model = SmallTrainedModel(table, 41);
  const auto queries = AsyncQueries(table, 107);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 100;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 1;
  acfg.max_wait_ms = 0.0;
  acfg.max_pending = 3;
  acfg.engine.num_threads = 2;
  acfg.engine.cache_budget_bytes = 0;
  AsyncEngine engine(acfg);

  // Park the dispatcher so the queue state below is fully deterministic.
  DispatcherHostage hostage;
  auto f_blocker =
      engine.Submit(&est, EstimateRequest(queries[0]), hostage.Callback());
  while (!hostage.entered.load()) std::this_thread::yield();

  const auto at = [&](size_t i, RequestPriority pri) {
    EstimateRequest req(queries[i]);
    req.options.priority = pri;
    return req;
  };
  // Fill the queue with three lows.
  auto f_low1 = engine.Submit(&est, at(1, RequestPriority::kLow));
  auto f_low2 = engine.Submit(&est, at(2, RequestPriority::kLow));
  auto f_low3 = engine.Submit(&est, at(3, RequestPriority::kLow));

  // A high against the full queue evicts the OLDEST low — immediately.
  auto f_high = engine.Submit(&est, at(4, RequestPriority::kHigh));
  ASSERT_EQ(f_low1.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "the evicted victim's future must resolve at once";
  const EstimateResult low1 = f_low1.get();
  EXPECT_EQ(low1.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(std::isnan(low1.estimate));
  EXPECT_EQ(low1.provenance, ResultProvenance::kShed);
  EXPECT_GE(low1.queue_ms, 0.0);

  // An incoming low against the (again) full queue is itself lowest:
  // rejected, the pending lows keep their place.
  auto f_low4 = engine.Submit(&est, at(5, RequestPriority::kLow));
  ASSERT_EQ(f_low4.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(f_low4.get().status.code(), StatusCode::kResourceExhausted);

  // An incoming normal outranks the pending lows: the next-oldest low
  // pays.
  auto f_normal = engine.Submit(&est, at(6, RequestPriority::kNormal));
  ASSERT_EQ(f_low2.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(f_low2.get().status.code(), StatusCode::kResourceExhausted);

  {
    const auto astats = engine.async_stats();
    EXPECT_EQ(astats.shed_admission, 3u);
    EXPECT_LE(astats.max_pending_seen, acfg.max_pending);
  }

  hostage.Release();
  engine.Drain();

  // Survivors — including every request of a class above low — completed
  // with bit-identical estimates.
  EXPECT_EQ(f_blocker.get().estimate, est.EstimateSelectivity(queries[0]));
  EXPECT_EQ(f_low3.get().estimate, est.EstimateSelectivity(queries[3]));
  EXPECT_EQ(f_high.get().estimate, est.EstimateSelectivity(queries[4]));
  EXPECT_EQ(f_normal.get().estimate, est.EstimateSelectivity(queries[6]));

  const auto astats = engine.async_stats();
  EXPECT_EQ(astats.submitted, 7u);
  EXPECT_EQ(astats.completed, 7u);  // shed deliveries count as completed
  EXPECT_LE(astats.max_pending_seen, acfg.max_pending);
  EXPECT_EQ(astats.shed_admission, 3u);
  // Admission sheds never reach the engine, which counts no shed result;
  // the rendered stats still report them as delivered shed results.
  const EngineStats stats = engine.engine()->stats();
  EXPECT_EQ(stats.results_shed, 0u);
  EXPECT_EQ(stats.shed_deadline, 0u);
  const std::string text = FormatEngineStats(stats, astats);
  EXPECT_NE(text.find("3 shed at admission)"), std::string::npos) << text;
  EXPECT_NE(text.find("/ 3 shed;"), std::string::npos) << text;
}

// Satellite: deadline-aware admission. A FULL queue first looks for a
// pending request whose deadline has ALREADY EXPIRED — dead weight that
// dispatch would shed anyway — and evicts that victim (typed
// DEADLINE_EXCEEDED, retry_after_ms 0: retrying an expired request is
// pointless) regardless of class order, before falling back to the
// lowest-class-first policy. Rejected overflow still gets
// RESOURCE_EXHAUSTED, now with a positive retry-after hint.
TEST(AsyncEngine, AdmissionEvictsExpiredPendingVictimFirst) {
  Table table = SmallTable(47);
  auto model = SmallTrainedModel(table, 47);
  const auto queries = AsyncQueries(table, 113);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 100;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 1;
  acfg.max_wait_ms = 0.0;
  acfg.max_pending = 3;
  acfg.engine.num_threads = 2;
  acfg.engine.cache_budget_bytes = 0;
  AsyncEngine engine(acfg);

  // Park the dispatcher so the queue state below is fully deterministic.
  DispatcherHostage hostage;
  auto f_blocker =
      engine.Submit(&est, EstimateRequest(queries[0]), hostage.Callback());
  while (!hostage.entered.load()) std::this_thread::yield();

  const auto at = [&](size_t i, RequestPriority pri) {
    EstimateRequest req(queries[i]);
    req.options.priority = pri;
    return req;
  };

  // Fill the queue: lowA (live), lowB (deadline expired long ago — Submit
  // does not pre-shed, so it sits pending), lowC (live).
  auto f_lowA = engine.Submit(&est, at(1, RequestPriority::kLow));
  auto expired = at(2, RequestPriority::kLow);
  expired.options.deadline = EstimateOptions::DeadlineInMs(-60000.0);
  auto f_lowB = engine.Submit(&est, std::move(expired));
  auto f_lowC = engine.Submit(&est, at(3, RequestPriority::kLow));
  ASSERT_NE(f_lowB.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "an expired deadline must not be shed at submit time";

  // A normal against the full queue evicts the EXPIRED low — not lowA,
  // the oldest request of the lowest class.
  auto f_norm = engine.Submit(&est, at(4, RequestPriority::kNormal));
  ASSERT_EQ(f_lowB.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_NE(f_lowA.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "a live request must not pay while an expired one pends";
  const EstimateResult lowB = f_lowB.get();
  EXPECT_EQ(lowB.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(std::isnan(lowB.estimate));
  EXPECT_EQ(lowB.provenance, ResultProvenance::kShed);
  EXPECT_EQ(lowB.retry_after_ms, 0.0);
  EXPECT_GE(lowB.queue_ms, 0.0);

  // The queue is full again with nothing expired: an incoming low is
  // itself lowest — rejected, and told how long to back off.
  auto f_lowD = engine.Submit(&est, at(5, RequestPriority::kLow));
  ASSERT_EQ(f_lowD.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const EstimateResult lowD = f_lowD.get();
  EXPECT_EQ(lowD.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(lowD.retry_after_ms, 0.0)
      << "a rejected request must carry a retry-after hint";

  // Expiry beats class order in BOTH directions. Stage an expired HIGH:
  // nothing pending is expired, so it evicts lowA by the fallback
  // lowest-class policy...
  auto dead_high = at(6, RequestPriority::kHigh);
  dead_high.options.deadline = EstimateOptions::DeadlineInMs(-1000.0);
  auto f_high = engine.Submit(&est, std::move(dead_high));
  ASSERT_EQ(f_lowA.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(f_lowA.get().status.code(), StatusCode::kResourceExhausted);
  // ...and then an incoming LOW evicts the expired high.
  auto f_lowE = engine.Submit(&est, at(7, RequestPriority::kLow));
  ASSERT_EQ(f_high.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const EstimateResult high = f_high.get();
  EXPECT_EQ(high.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(high.provenance, ResultProvenance::kShed);
  EXPECT_EQ(high.retry_after_ms, 0.0);

  {
    const auto astats = engine.async_stats();
    EXPECT_EQ(astats.shed_admission, 4u);
    EXPECT_EQ(astats.expired_victims, 2u);
    EXPECT_LE(astats.max_pending_seen, acfg.max_pending);
  }

  hostage.Release();
  engine.Drain();

  // Survivors completed with bit-identical estimates.
  EXPECT_EQ(f_blocker.get().estimate, est.EstimateSelectivity(queries[0]));
  EXPECT_EQ(f_lowC.get().estimate, est.EstimateSelectivity(queries[3]));
  EXPECT_EQ(f_norm.get().estimate, est.EstimateSelectivity(queries[4]));
  EXPECT_EQ(f_lowE.get().estimate, est.EstimateSelectivity(queries[7]));

  const AsyncEngineStats astats = engine.async_stats();
  EXPECT_EQ(astats.shed_admission, 4u);
  EXPECT_EQ(astats.expired_victims, 2u);
  const EngineStats stats = engine.engine()->stats();
  EXPECT_EQ(stats.results_shed, 0u);
  EXPECT_EQ(stats.shed_deadline, 0u)
      << "admission evictions must not masquerade as dispatch sheds";
  const std::string text = FormatEngineStats(stats, astats);
  EXPECT_NE(text.find("/ 4 shed;"), std::string::npos) << text;
  EXPECT_NE(text.find("already expired when evicted: 2"), std::string::npos)
      << text;
}

// Satellite bugfix: a flush forced by Drain (or stop) while the queue
// happens to hold exactly max_batch_size requests is a DRAIN flush — the
// old reason attribution checked the size branch first and miscounted it
// as a size flush.
TEST(AsyncEngine, DrainFlushOfFullQueueIsCountedAsDrainFlush) {
  Table table = SmallTable(43);
  auto model = SmallTrainedModel(table, 43);
  const auto queries = AsyncQueries(table, 109);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 100;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 3;
  acfg.max_wait_ms = 0.0;
  acfg.engine.num_threads = 2;
  acfg.engine.cache_budget_bytes = 0;
  AsyncEngine engine(acfg);

  DispatcherHostage hostage;
  auto f_blocker =
      engine.Submit(&est, EstimateRequest(queries[0]), hostage.Callback());
  while (!hostage.entered.load()) std::this_thread::yield();

  // Exactly max_batch_size requests pile up, THEN a drain registers.
  std::vector<std::future<EstimateResult>> futures;
  for (size_t i = 1; i <= 3; ++i) {
    futures.push_back(engine.Submit(&est, EstimateRequest(queries[i])));
  }
  std::thread drainer([&] { engine.Drain(); });
  // The drain only needs the mutex (the dispatcher is parked outside it)
  // to register its waiter; give it ample time.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  hostage.Release();
  drainer.join();

  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().estimate,
              est.EstimateSelectivity(queries[i + 1]));
  }
  (void)f_blocker.get();
  const auto astats = engine.async_stats();
  EXPECT_GE(astats.drain_flushes, 1u)
      << "a drain-forced cut of a full queue is a drain flush";
  EXPECT_EQ(astats.size_flushes, 0u)
      << "it must not masquerade as a size flush";
}

// The opposite ordering: the queue reaches max_batch_size with NO drain
// active — that flush is a size flush.
TEST(AsyncEngine, SizeFlushWithoutDrainIsCountedAsSizeFlush) {
  Table table = SmallTable(47);
  auto model = SmallTrainedModel(table, 47);
  const auto queries = AsyncQueries(table, 113);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 100;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 3;
  acfg.max_wait_ms = 0.0;
  acfg.engine.num_threads = 2;
  acfg.engine.cache_budget_bytes = 0;
  AsyncEngine engine(acfg);

  DispatcherHostage hostage;
  auto f_blocker =
      engine.Submit(&est, EstimateRequest(queries[0]), hostage.Callback());
  while (!hostage.entered.load()) std::this_thread::yield();

  std::vector<std::future<EstimateResult>> futures;
  for (size_t i = 1; i <= 3; ++i) {
    futures.push_back(engine.Submit(&est, EstimateRequest(queries[i])));
  }
  hostage.Release();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().estimate,
              est.EstimateSelectivity(queries[i + 1]));
  }
  (void)f_blocker.get();
  const auto astats = engine.async_stats();
  EXPECT_GE(astats.size_flushes, 1u);
  EXPECT_EQ(astats.drain_flushes, 0u);
}

// Tentpole: within a priority class the dispatcher cuts deadline-carrying
// requests first, tightest deadline first, while deadline-free requests
// keep FIFO among themselves — a near-deadline request is not stranded
// behind deadline-free traffic that arrived earlier.
TEST(AsyncEngine, TightestDeadlineIsCutFirstWithinAClass) {
  Table table = SmallTable(53);
  auto model = SmallTrainedModel(table, 53);
  const auto queries = AsyncQueries(table, 127);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 100;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  AsyncEngineConfig acfg;
  acfg.max_batch_size = 1;  // one request per flush: order is observable
  acfg.max_wait_ms = 0.0;
  acfg.engine.num_threads = 2;
  acfg.engine.cache_budget_bytes = 0;
  AsyncEngine engine(acfg);

  DispatcherHostage hostage;
  auto f_blocker =
      engine.Submit(&est, EstimateRequest(queries[0]), hostage.Callback());
  while (!hostage.entered.load()) std::this_thread::yield();

  std::mutex mu;
  std::vector<std::string> completion_order;
  const auto record = [&](const char* name) {
    return [&, name](const EstimateResult&) {
      std::lock_guard<std::mutex> lock(mu);
      completion_order.emplace_back(name);
    };
  };

  // All normal priority; generous deadlines (nothing sheds). Arrival
  // order: deadline-free first, then loose, then tight.
  EstimateRequest free_req(queries[1]);
  auto f_free = engine.Submit(&est, std::move(free_req), record("free"));
  EstimateRequest loose(queries[2]);
  loose.options.deadline = EstimateOptions::DeadlineInMs(60000.0);
  auto f_loose = engine.Submit(&est, std::move(loose), record("loose"));
  EstimateRequest tight(queries[3]);
  tight.options.deadline = EstimateOptions::DeadlineInMs(30000.0);
  auto f_tight = engine.Submit(&est, std::move(tight), record("tight"));

  hostage.Release();
  // Wait on the futures, NOT Drain(): an active drain reverts to
  // FIFO-by-arrival, which would hide the ordering under test.
  const EstimateResult r_free = f_free.get();
  const EstimateResult r_loose = f_loose.get();
  const EstimateResult r_tight = f_tight.get();
  (void)f_blocker.get();

  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], "tight");
  EXPECT_EQ(completion_order[1], "loose");
  EXPECT_EQ(completion_order[2], "free");
  EXPECT_GE(engine.async_stats().deadline_reorders, 1u);

  // Scheduling only — every estimate is still the sequential one.
  EXPECT_EQ(r_free.estimate, est.EstimateSelectivity(queries[1]));
  EXPECT_EQ(r_loose.estimate, est.EstimateSelectivity(queries[2]));
  EXPECT_EQ(r_tight.estimate, est.EstimateSelectivity(queries[3]));
}

TEST(AsyncEngine, DestructorDrainsPendingSubmissions) {
  Table table = SmallTable(17);
  auto model = SmallTrainedModel(table, 17);
  const auto queries = AsyncQueries(table, 83);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 100;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, 0);

  std::vector<std::future<EstimateResult>> futures;
  {
    AsyncEngineConfig acfg;
    acfg.max_batch_size = 1000;   // would never flush by size
    acfg.max_wait_ms = 10000.0;   // nor by deadline within the test
    AsyncEngine engine(acfg);
    for (const auto& q : queries) {
      futures.push_back(engine.Submit(&est, EstimateRequest(q)));
    }
  }  // destruction must flush and deliver everything
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(EstimateOf(&futures[i]), est.EstimateSelectivity(queries[i]))
        << "query " << i;
  }
}

}  // namespace
}  // namespace naru
