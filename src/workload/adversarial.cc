#include "workload/adversarial.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "query/executor.h"
#include "serve/query_key.h"
#include "util/random.h"
#include "util/string_util.h"

namespace naru {
namespace {

// Band edges as fractions of the table (see header): zero / narrow /
// medium / broad.
constexpr double kNarrowEdge = 0.005;
constexpr double kMediumEdge = 0.1;

// Zipf exponents: row skew (hot anchor tuples) and key churn (hot pool
// indices). Both > 1 so the head genuinely dominates.
constexpr double kRowZipfS = 1.1;
constexpr double kChurnZipfS = 1.2;

// Candidate budget multiplier for the rejection-sampling phase.
constexpr size_t kAttemptsPerSlot = 64;

double ExponentialGapMs(Rng* rng, double qps) {
  if (qps <= 0) return 0.0;
  // Inverse CDF; 1 - U avoids log(0).
  return -std::log(1.0 - rng->UniformDouble()) * (1000.0 / qps);
}

// One candidate query for the scenario's shape/skew. `attempt` cycles the
// filter count (and, for wildcard-prefix shapes, the run length) so the
// candidate stream sweeps the whole selectivity spectrum instead of
// clustering where one filter count lands.
Query MakeCandidate(const Table& table, const AdversarialScenario& s,
                    size_t attempt, Rng* rng, const ZipfTable* row_zipf) {
  const size_t num_cols = table.num_columns();
  const size_t max_f =
      s.max_filters == 0 ? num_cols : std::min(s.max_filters, num_cols);
  const size_t min_f = std::clamp<size_t>(s.min_filters, 1, max_f);
  const size_t span = max_f - min_f + 1;
  size_t f = min_f + attempt % span;

  const size_t rows = table.num_rows();

  // `lead` columns are withheld from the random filter draw: left
  // unconstrained (wildcard prefix) or pinned to a shared template tuple
  // (shared literal prefix).
  size_t lead = 0;
  size_t template_row = 0;
  const bool shared_prefix =
      s.shape == PredicateShape::kSharedLiteralPrefix && num_cols > 1;
  if ((s.shape == PredicateShape::kWildcardPrefix || shared_prefix) &&
      num_cols > 1) {
    lead = 1 + (attempt / span) % (num_cols - 1);
    f = std::min(f, num_cols - lead);
    // A handful of template tuples shared across candidates, so many pool
    // entries carry IDENTICAL leading (column, literal) pairs — the
    // constrained prefixes plan trees fuse. Deterministic in `attempt`.
    if (shared_prefix) template_row = (((attempt / span) % 4) * 131) % rows;
  }

  std::vector<size_t> cols;
  cols.reserve(num_cols - lead);
  for (size_t c = lead; c < num_cols; ++c) cols.push_back(c);
  rng->Shuffle(&cols);
  f = std::min(f, cols.size());

  const size_t anchor =
      row_zipf != nullptr ? row_zipf->Sample(rng) : rng->UniformInt(rows);
  const bool cold = s.skew == SkewKind::kZipfCold;

  std::vector<Predicate> preds;
  preds.reserve(lead + f);
  if (shared_prefix) {
    for (size_t c = 0; c < lead; ++c) {
      Predicate p;
      p.column = c;
      p.op = CompareOp::kEq;
      p.literal = table.column(c).code(template_row);
      preds.push_back(std::move(p));
    }
  }
  for (size_t k = 0; k < f; ++k) {
    const size_t col = cols[k];
    const size_t domain = table.column(col).DomainSize();
    const int64_t lit = cold ? static_cast<int64_t>(rng->UniformInt(domain))
                             : table.column(col).code(anchor);
    Predicate p;
    p.column = col;
    p.op = CompareOp::kEq;
    p.literal = lit;
    if (domain >= 2) {
      switch (s.shape) {
        case PredicateShape::kPoint:
        case PredicateShape::kWildcardPrefix:
        case PredicateShape::kSharedLiteralPrefix:
          break;
        case PredicateShape::kRange: {
          const int64_t other =
              cold ? static_cast<int64_t>(rng->UniformInt(domain))
                   : table.column(col).code(rng->UniformInt(rows));
          switch (rng->UniformInt(3)) {
            case 0:
              p.op = CompareOp::kLe;
              break;
            case 1:
              p.op = CompareOp::kGe;
              break;
            default:
              p.op = CompareOp::kBetween;
              p.literal = std::min(lit, other);
              p.literal2 = std::max(lit, other);
              break;
          }
          break;
        }
        case PredicateShape::kInList: {
          p.op = CompareOp::kIn;
          p.in_list.push_back(static_cast<int32_t>(lit));
          const size_t extra = rng->UniformInt(4);
          for (size_t j = 0; j < extra; ++j) {
            p.in_list.push_back(
                cold ? static_cast<int32_t>(rng->UniformInt(domain))
                     : table.column(col).code(rng->UniformInt(rows)));
          }
          break;
        }
      }
    }
    preds.push_back(std::move(p));
  }
  return Query(table, std::move(preds));
}

// Deterministic fallback when rejection sampling cannot reach a band with
// the scenario's shape (e.g. pure point queries on a near-uniform table
// rarely land broad). Returns false only when the table itself cannot
// express the band (all domains 1, ...).
bool SynthesizeBandQuery(const Table& table, size_t band, Query* out,
                         double* sel_out) {
  const size_t num_cols = table.num_columns();
  const size_t rows = table.num_rows();
  switch (band) {
    case 0: {  // zero: contradictory equalities on one column
      for (size_t c = 0; c < num_cols; ++c) {
        if (table.column(c).DomainSize() < 2) continue;
        std::vector<Predicate> preds(2);
        preds[0].column = c;
        preds[0].op = CompareOp::kEq;
        preds[0].literal = 0;
        preds[1].column = c;
        preds[1].op = CompareOp::kEq;
        preds[1].literal = 1;
        *out = Query(table, std::move(preds));
        *sel_out = 0.0;
        return true;
      }
      return false;
    }
    case 3: {  // broad: the all-wildcard query (selectivity exactly 1)
      *out = Query(table, std::vector<Predicate>{});
      *sel_out = 1.0;
      return true;
    }
    case 1:    // narrow: full point queries on real tuples
    case 2: {  // medium: single-column equalities on real tuples
      for (size_t t = 0; t < std::min<size_t>(rows, 24); ++t) {
        // Stride through the table so the probes see distinct tuples.
        const size_t row = (t * 97) % rows;
        if (band == 1) {
          std::vector<Predicate> preds;
          preds.reserve(num_cols);
          for (size_t c = 0; c < num_cols; ++c) {
            Predicate p;
            p.column = c;
            p.op = CompareOp::kEq;
            p.literal = table.column(c).code(row);
            preds.push_back(p);
          }
          Query q(table, std::move(preds));
          const double sel = ExecuteSelectivity(table, q);
          if (ClassifySelectivityBand(sel) == band) {
            *out = std::move(q);
            *sel_out = sel;
            return true;
          }
        } else {
          for (size_t c = 0; c < num_cols; ++c) {
            std::vector<Predicate> preds(1);
            preds[0].column = c;
            preds[0].op = CompareOp::kEq;
            preds[0].literal = table.column(c).code(row);
            Query q(table, std::move(preds));
            const double sel = ExecuteSelectivity(table, q);
            if (ClassifySelectivityBand(sel) == band) {
              *out = std::move(q);
              *sel_out = sel;
              return true;
            }
          }
        }
      }
      return false;
    }
    default:
      return false;
  }
}

std::string HexEncode(const std::string& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

}  // namespace

const char* SelectivityBandName(size_t band) {
  switch (band) {
    case 0:
      return "zero";
    case 1:
      return "narrow";
    case 2:
      return "medium";
    case 3:
      return "broad";
    default:
      return "?";
  }
}

size_t ClassifySelectivityBand(double selectivity) {
  if (selectivity <= 0.0) return 0;
  if (selectivity <= kNarrowEdge) return 1;
  if (selectivity <= kMediumEdge) return 2;
  return 3;
}

const char* PredicateShapeToString(PredicateShape shape) {
  switch (shape) {
    case PredicateShape::kPoint:
      return "point";
    case PredicateShape::kRange:
      return "range";
    case PredicateShape::kInList:
      return "in_list";
    case PredicateShape::kWildcardPrefix:
      return "wildcard_prefix";
    case PredicateShape::kSharedLiteralPrefix:
      return "shared_literal_prefix";
  }
  return "?";
}

const char* SkewKindToString(SkewKind skew) {
  switch (skew) {
    case SkewKind::kUniform:
      return "uniform";
    case SkewKind::kZipfHot:
      return "zipf_hot";
    case SkewKind::kZipfCold:
      return "zipf_cold";
  }
  return "?";
}

const char* ArrivalKindToString(ArrivalKind arrival) {
  switch (arrival) {
    case ArrivalKind::kInstant:
      return "instant";
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kBursty:
      return "bursty";
  }
  return "?";
}

const char* PriorityMixToString(PriorityMixKind mix) {
  switch (mix) {
    case PriorityMixKind::kAllNormal:
      return "all_normal";
    case PriorityMixKind::kMixed:
      return "mixed";
    case PriorityMixKind::kInverted:
      return "inverted";
  }
  return "?";
}

const char* ChurnKindToString(ChurnKind churn) {
  switch (churn) {
    case ChurnKind::kRepeatHot:
      return "repeat_hot";
    case ChurnKind::kCyclicSweep:
      return "cyclic_sweep";
  }
  return "?";
}

AdversarialTrace GenerateAdversarialTrace(const Table& table,
                                          const AdversarialScenario& scenario,
                                          size_t pool_size,
                                          size_t num_requests, uint64_t seed) {
  NARU_CHECK(table.num_rows() > 0);
  NARU_CHECK(pool_size > 0);
  size_t quota_sum = 0;
  for (const size_t q : scenario.band_quota) quota_sum += q;
  NARU_CHECK(quota_sum <= pool_size);

  AdversarialTrace trace;
  trace.scenario = scenario.name;

  Rng rng(seed);
  std::unique_ptr<ZipfTable> row_zipf;
  if (scenario.skew == SkewKind::kZipfHot) {
    row_zipf = std::make_unique<ZipfTable>(table.num_rows(), kRowZipfS);
  }

  // --- Pool: rejection sampling against executed ground truth. ---
  // Candidates that land in an unmet band are accepted immediately; the
  // rest are stashed and used to top the pool up once quotas are settled.
  std::array<size_t, kNumSelectivityBands> quota_left = scenario.band_quota;
  auto quota_unmet = [&quota_left]() {
    for (const size_t q : quota_left) {
      if (q > 0) return true;
    }
    return false;
  };

  std::vector<Query> overflow;
  std::vector<double> overflow_sel;
  const size_t budget = kAttemptsPerSlot * pool_size;
  auto accept = [&trace](Query q, double sel) {
    const size_t band = ClassifySelectivityBand(sel);
    trace.pool_true_sel.push_back(sel);
    trace.pool_band.push_back(band);
    trace.pool_wildcard_run.push_back(q.LeadingWildcardRun());
    trace.band_counts[band]++;
    trace.pool.push_back(std::move(q));
  };

  for (size_t attempt = 0;
       attempt < budget && (quota_unmet() || trace.pool.size() < pool_size);
       ++attempt) {
    Query q = MakeCandidate(table, scenario, attempt, &rng, row_zipf.get());
    const double sel = ExecuteSelectivity(table, q);
    const size_t band = ClassifySelectivityBand(sel);
    if (quota_left[band] > 0 && trace.pool.size() < pool_size) {
      quota_left[band]--;
      accept(std::move(q), sel);
    } else if (overflow.size() < pool_size) {
      overflow.push_back(std::move(q));
      overflow_sel.push_back(sel);
    }
  }

  // Bands the shape could not reach get deterministic synthesized
  // representatives (contradictions, the all-wildcard query, tuple-anchored
  // point probes); a band the table itself cannot express stays unmet and
  // is visible in band_counts.
  for (size_t band = 0; band < kNumSelectivityBands; ++band) {
    while (quota_left[band] > 0 && trace.pool.size() < pool_size) {
      Query q(table, std::vector<Predicate>{});  // placeholder, overwritten
      double sel = 0.0;
      if (!SynthesizeBandQuery(table, band, &q, &sel)) break;
      quota_left[band]--;
      accept(std::move(q), sel);
    }
  }

  // Top up to pool_size from the stash (generation order), then — only if
  // the budget produced too few candidates — from fresh unconditional ones.
  for (size_t i = 0; i < overflow.size() && trace.pool.size() < pool_size;
       ++i) {
    accept(std::move(overflow[i]), overflow_sel[i]);
  }
  for (size_t attempt = budget; trace.pool.size() < pool_size; ++attempt) {
    Query q = MakeCandidate(table, scenario, attempt, &rng, row_zipf.get());
    const double sel = ExecuteSelectivity(table, q);
    accept(std::move(q), sel);
  }

  // --- Requests: arrivals, churn, priorities, deadlines, cache policy. ---
  std::unique_ptr<ZipfTable> churn_zipf;
  if (scenario.churn == ChurnKind::kRepeatHot) {
    churn_zipf = std::make_unique<ZipfTable>(trace.pool.size(), kChurnZipfS);
  }
  const double cycle_ms = scenario.burst_on_ms + scenario.burst_off_ms;
  double clock_ms = 0.0;
  trace.requests.reserve(num_requests);
  for (size_t i = 0; i < num_requests; ++i) {
    AdversarialRequest r;
    switch (scenario.arrival) {
      case ArrivalKind::kInstant:
        break;
      case ArrivalKind::kPoisson:
        clock_ms += ExponentialGapMs(&rng, scenario.qps);
        break;
      case ArrivalKind::kBursty: {
        clock_ms += ExponentialGapMs(&rng, scenario.qps);
        if (cycle_ms > 0 && scenario.burst_off_ms > 0) {
          const double phase = std::fmod(clock_ms, cycle_ms);
          // An arrival drifting into the off-window snaps to the next
          // on-window start — the on/off square wave the scenario declares.
          if (phase > scenario.burst_on_ms) clock_ms += cycle_ms - phase;
        }
        break;
      }
    }
    r.arrival_ms = clock_ms;
    r.pool_index = churn_zipf != nullptr ? churn_zipf->Sample(&rng)
                                         : i % trace.pool.size();
    switch (scenario.priority_mix) {
      case PriorityMixKind::kAllNormal:
        break;
      case PriorityMixKind::kMixed: {
        const double u = rng.UniformDouble();
        r.priority = u < 0.5    ? RequestPriority::kLow
                     : u < 0.85 ? RequestPriority::kNormal
                                : RequestPriority::kHigh;
        break;
      }
      case PriorityMixKind::kInverted: {
        const double u = rng.UniformDouble();
        r.priority = u < 0.5    ? RequestPriority::kHigh
                     : u < 0.85 ? RequestPriority::kNormal
                                : RequestPriority::kLow;
        break;
      }
    }
    if (scenario.expired_deadline_fraction > 0 ||
        scenario.tight_deadline_fraction > 0) {
      const double u = rng.UniformDouble();
      if (u < scenario.expired_deadline_fraction) {
        r.deadline_ms = 0.0;
      } else if (u < scenario.expired_deadline_fraction +
                         scenario.tight_deadline_fraction) {
        r.deadline_ms = scenario.tight_deadline_ms;
      }
    }
    if (scenario.bypass_cache_fraction > 0 &&
        rng.UniformDouble() < scenario.bypass_cache_fraction) {
      r.cache_policy = CachePolicy::kBypass;
    }
    r.num_samples = scenario.request_samples;
    trace.requests.push_back(r);
  }
  return trace;
}

std::vector<AdversarialScenario> AdversarialScenarioMatrix() {
  std::vector<AdversarialScenario> matrix;

  {  // Baseline: the friendliest cell — everything else deviates from it.
    AdversarialScenario s;
    s.name = "point_uniform_poisson";
    matrix.push_back(std::move(s));
  }
  {  // Range shapes over a hot-tuple skew (repeating popular literals).
    AdversarialScenario s;
    s.name = "range_hot_skew";
    s.shape = PredicateShape::kRange;
    s.skew = SkewKind::kZipfHot;
    matrix.push_back(std::move(s));
  }
  {  // IN-lists with cold out-of-distribution literals (empty/rare heavy).
    AdversarialScenario s;
    s.name = "in_list_cold";
    s.shape = PredicateShape::kInList;
    s.skew = SkewKind::kZipfCold;
    matrix.push_back(std::move(s));
  }
  {  // Leading wildcard runs of every length: the plan layer's best case,
     // and a sweep of the shareable-prefix dimension.
    AdversarialScenario s;
    s.name = "wildcard_prefix_sweep";
    s.shape = PredicateShape::kWildcardPrefix;
    matrix.push_back(std::move(s));
  }
  {  // Shared CONSTRAINED prefixes of every length: many pool entries pin
     // their leading columns to the same few template tuples, the case
     // where hierarchical plan trees share walk segments AND likelihood
     // terms. Cyclic churn keeps the result caches out of the way so the
     // plan path actually executes.
    AdversarialScenario s;
    s.name = "shared_literal_prefix_sweep";
    s.shape = PredicateShape::kSharedLiteralPrefix;
    s.churn = ChurnKind::kCyclicSweep;
    matrix.push_back(std::move(s));
  }
  {  // Cache-adversarial: cyclic sweep defeats LRU reuse, and a quarter of
     // the stream bypasses the caches outright.
    AdversarialScenario s;
    s.name = "cache_churn_cycle";
    s.churn = ChurnKind::kCyclicSweep;
    s.bypass_cache_fraction = 0.25;
    matrix.push_back(std::move(s));
  }
  {  // Deadline storm: a quarter of requests arrive already expired
     // (deadline shed) under an INVERTED priority stream — high-majority
     // traffic is where dispatch-time shedding hurts most.
    AdversarialScenario s;
    s.name = "deadline_storm";
    s.priority_mix = PriorityMixKind::kInverted;
    s.expired_deadline_fraction = 0.25;
    matrix.push_back(std::move(s));
  }
  {  // Bursty overload: on/off arrival bursts against a bounded pending
     // queue (the bench pairs this cell with a small max_pending). The
     // LOW-majority mix is what admission control needs: lows are the
     // eviction victims. (An inverted mix converges the bounded queue to
     // all-high — everything else is rejected at admission — and the
     // eviction side of the policy is never visible. Note admission
     // eviction also removes exactly the older-lower backlog that
     // priority-FLUSH detection keys on, so flush-order behavior is
     // asserted on deadline_storm's unbounded backlog instead.)
    AdversarialScenario s;
    s.name = "burst_admission";
    s.arrival = ArrivalKind::kBursty;
    s.priority_mix = PriorityMixKind::kMixed;
    s.qps = 20000.0;
    matrix.push_back(std::move(s));
  }
  {  // Mid-walk abandonment: tight-but-live deadlines over walks made slow
     // by a large per-request sample budget. The deadline belongs on the
     // order of ONE micro-batch: long enough that tights arriving during
     // the in-flight batch are still live when the (tightest-first) cut
     // dispatches them, short enough that their own walk overruns it.
     // Walk speed is a property of the host, so bench_adversarial replaces
     // this 800 ms default with a micro-batch it times before the cell.
    AdversarialScenario s;
    s.name = "midwalk_deadlines";
    s.tight_deadline_fraction = 0.5;
    s.tight_deadline_ms = 800.0;
    s.request_samples = 20000;
    s.qps = 250.0;
    matrix.push_back(std::move(s));
  }
  return matrix;
}

std::string TraceToString(const AdversarialTrace& trace) {
  std::string out = "adversarial-trace v1\n";
  out += StrFormat("scenario %s\n", trace.scenario.c_str());
  out += StrFormat("pool %zu\n", trace.pool.size());
  for (size_t i = 0; i < trace.pool.size(); ++i) {
    out += StrFormat("%zu band=%zu sel=%.17g run=%zu key=%s\n", i,
                     trace.pool_band[i], trace.pool_true_sel[i],
                     trace.pool_wildcard_run[i],
                     HexEncode(QueryKey(trace.pool[i])).c_str());
  }
  out += StrFormat("requests %zu\n", trace.requests.size());
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const AdversarialRequest& r = trace.requests[i];
    out += StrFormat(
        "%zu t=%.17g q=%zu pri=%d dl=%.17g cache=%d samples=%zu\n", i,
        r.arrival_ms, r.pool_index, static_cast<int>(r.priority),
        r.deadline_ms, static_cast<int>(r.cache_policy), r.num_samples);
  }
  return out;
}

EstimateRequest MaterializeRequest(
    const AdversarialTrace& trace, size_t i,
    std::chrono::steady_clock::time_point start) {
  const AdversarialRequest& r = trace.requests[i];
  EstimateRequest req(trace.pool[r.pool_index]);
  req.options.priority = r.priority;
  req.options.cache_policy = r.cache_policy;
  req.options.num_samples = r.num_samples;
  if (r.deadline_ms >= 0) {
    req.options.deadline =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(r.arrival_ms +
                                                              r.deadline_ms));
  }
  return req;
}

}  // namespace naru
