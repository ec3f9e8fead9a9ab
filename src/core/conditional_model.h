// The autoregressive-conditional interface queried by progressive sampling.
//
// Any model that can produce P̂(X_i | x_<i) plugs into the sampler (§3.2,
// Eq. 1): the learned MADE network (architecture B), the per-column
// aggregation network (architecture A), or the scanning Oracle used for the
// §6.7 microbenchmarks. The sampler drives a SamplingSession so stateful
// models (the Oracle's shrinking row lists, MADE's per-degree trunk) can
// serve columns incrementally.
#pragma once

#include <memory>
#include <vector>

#include "query/query.h"
#include "tensor/kernel.h"
#include "tensor/matrix.h"

namespace naru {

/// A per-query stateful cursor over the model's conditionals.
///
/// Dist fills probs (batch x domain(col)) with P̂(X_col = v | samples_<col)
/// for each row r of `samples`, reading samples(r, j) for j < col only.
/// Row r's result depends on row r's prefix alone, bit for bit — never on
/// the other rows or the row count — so the plan executor (src/plan) may
/// stack the rows of unrelated walks into one call.
///
/// Call order: a session may keep per-row state between Dist calls (the
/// Oracle's path groups, MADE's incremental trunk), so every caller walks
/// in order: col = 0, 1, 2, ..., writing only column col-1 of each row
/// between the calls for col-1 and col (sampling writes the drawn value;
/// dead paths write a fallback code). Rows may be rearranged between two
/// calls, announced by Relayout (below). TupleGenerator never
/// rearranges; the sampling-plan executor does at every fork or retire
/// boundary.
class SamplingSession {
 public:
  virtual ~SamplingSession() = default;
  virtual void Dist(const IntMatrix& samples, size_t col, Matrix* probs) = 0;
  /// The rows of `samples` were rearranged since the last Dist: new row i
  /// continues old row src[i] (rows may be duplicated, dropped or
  /// permuted, and the row count may change). The session rearranges its
  /// per-row state the same way and keeps walking in order. Default: a
  /// no-op, for sessions that keep none.
  virtual void Relayout(const std::vector<size_t>& src) { (void)src; }
};

/// A joint distribution factored in column order (chain rule, §2.1).
class ConditionalModel {
 public:
  virtual ~ConditionalModel() = default;

  virtual size_t num_columns() const = 0;
  virtual size_t DomainSize(size_t col) const = 0;

  /// Table column served at model position `model_col`. Models trained
  /// over a permutation of the table order (multi-order ensembles; §3.1
  /// notes the model "can be architected to use any ordering(s)") override
  /// this so the sampler can map query regions onto model positions. The
  /// default is the identity (model order == table order).
  virtual size_t TableColumnOf(size_t model_col) const { return model_col; }

  /// Number of TABLE columns this model covers. Equals num_columns()
  /// except for models whose positions subdivide table columns
  /// (FactorizedModel splits large domains into high/low sub-columns);
  /// queries are always expressed over table columns.
  virtual size_t num_table_columns() const { return num_columns(); }

  /// True when model position `pos` is unconstrained by `query`: the
  /// contained mass at that step is exactly 1 and the sampler can draw
  /// from the full conditional (and exit early on a trailing run). The
  /// default reads the query's materialized wildcard bitmap.
  virtual bool PositionIsWildcard(const Query& query, size_t pos) const {
    return query.wildcard_mask()[TableColumnOf(pos)] != 0;
  }

  /// Zeroes the entries of `probs_row` (length DomainSize(pos)) outside
  /// the set allowed at model position `pos` for a path whose sampled
  /// model prefix is `prefix` (positions < pos are valid); returns the
  /// remaining mass. The default masks with the table column's query
  /// region identically for every path; factorized models restrict a low
  /// sub-column using the already-sampled high part, which is why the
  /// prefix is part of the contract.
  ///
  /// The returned mass is the ascending chain of double adds, from +0,
  /// of the float entries the mask keeps. Adding the zeroed entries (+0)
  /// would not change it, so it has the bits of the whole masked row's
  /// ascending sum, and SamplerColumnStep passes it to
  /// Rng::Categorical as the draw's total instead of summing the row
  /// again. An override must keep this order, or the draws (and the
  /// golden estimates) change.
  virtual double MaskProbsToRegion(const Query& query, const int32_t* prefix,
                                   size_t pos, float* probs_row) const {
    (void)prefix;
    return query.region(TableColumnOf(pos)).MaskProbs(probs_row);
  }

  /// An in-domain code for position `pos` used to keep dead sample paths
  /// well-defined (their weights are already 0; the value never affects
  /// estimates, it only has to be a legal input to the model).
  virtual int32_t FallbackCode(const Query& query, size_t pos) const {
    const ValueSet& region = query.region(TableColumnOf(pos));
    return region.IsEmpty() ? 0 : region.NthCode(0);
  }

  /// Translates one TABLE-order row (num_table_columns codes) into the
  /// model's position layout (num_columns codes). The default permutes by
  /// TableColumnOf, covering both identity and reordered models.
  virtual void EncodeTableRow(const int32_t* table_codes,
                              int32_t* model_codes) const {
    for (size_t pos = 0; pos < num_columns(); ++pos) {
      model_codes[pos] = table_codes[TableColumnOf(pos)];
    }
  }

  /// Inverse of EncodeTableRow.
  virtual void DecodeToTableRow(const int32_t* model_codes,
                                int32_t* table_codes) const {
    for (size_t pos = 0; pos < num_columns(); ++pos) {
      table_codes[TableColumnOf(pos)] = model_codes[pos];
    }
  }

  /// Stateless conditional query: fills probs (batch x DomainSize(col))
  /// given the prefix codes in `samples` (columns >= col are ignored).
  virtual void ConditionalDist(const IntMatrix& samples, size_t col,
                               Matrix* probs) = 0;

  /// log P̂(x) in nats for each full tuple row. The default composes
  /// ConditionalDist column by column; models with a one-pass likelihood
  /// (MADE) override it.
  virtual void LogProbRows(const IntMatrix& tuples,
                           std::vector<double>* out_nats);

  /// Starts a sampling cursor; the default session forwards to
  /// ConditionalDist.
  virtual std::unique_ptr<SamplingSession> StartSession(size_t batch);

  /// True when independently started sessions may run Dist concurrently
  /// from different threads (the model's weights are read-only at inference
  /// and every session owns its evaluation workspace). The sharded sampler
  /// and the serving engine only parallelize over models that declare this;
  /// the default is the conservative false because the default session
  /// forwards to ConditionalDist, which most models back with shared
  /// scratch buffers.
  virtual bool SupportsConcurrentSampling() const { return false; }

  /// Selects the kernel family the INFERENCE forward paths use
  /// (ConditionalDist, sessions, LogProbRows); training always stays
  /// scalar fp32. The setting is model-wide state: all
  /// sessions observe it, so wrapping one model with estimators of
  /// different kernels is unsupported (last set wins) — use one model
  /// instance per kernel to A/B. Default: no-op (model stays scalar) for
  /// models without tuned kernels (the Oracle, per-column nets).
  virtual void SetInferenceKernel(KernelKind kernel) { (void)kernel; }
  virtual KernelKind inference_kernel() const { return KernelKind::kScalar; }

  /// Dominant GEMM inner width of the stacked inference path (the widest
  /// hidden layer a stacked Dist call multiplies through). The plan
  /// compiler's AutoGroupWidth uses it, together with the kernel and
  /// shard size, to pick a fork fan-out cap whose stacked GEMM shapes
  /// land in the sweet spot bench_micro_gemm measured. Purely advisory:
  /// it never affects estimates. 0 = unknown (callers fall back to a
  /// fixed cap).
  virtual size_t StackedWidthHint() const { return 0; }
};

}  // namespace naru
