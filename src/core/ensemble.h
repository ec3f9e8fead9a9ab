// Multi-order ensemble estimator (§3.1 "any ordering(s)").
//
// Trains K MADE models, each over a different permutation of the table's
// columns (member 0 keeps the natural order), and answers a query with the
// mean of the K progressive-sampling estimates. Every member estimate is
// unbiased (Theorem 1), so the mean is too; because the per-query variance
// depends strongly on where the filtered columns fall in the walk order,
// averaging over orders flattens the variance tail at equal total sample
// budget.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/ordered_model.h"
#include "core/trainer.h"
#include "data/table.h"
#include "estimator/estimator.h"

namespace naru {

struct MultiOrderConfig {
  /// Ensemble size K (member 0 uses the natural table order).
  size_t num_orders = 4;
  /// Architecture shared by every member; member k trains with seed
  /// model.seed + k so inits differ.
  MadeModel::Config model;
  TrainerConfig trainer;
  /// Per-member sampler configuration. num_samples is the PER-MEMBER path
  /// count; the ensemble's total budget is num_orders * num_samples.
  NaruEstimatorConfig estimator;
  uint64_t order_seed = 97;
};

class MultiOrderEnsemble : public Estimator {
 public:
  /// Builds and trains all members on `table` (blocking).
  MultiOrderEnsemble(const Table& table, MultiOrderConfig config);

  std::string name() const override { return name_; }
  /// Mean of the member estimates.
  double EstimateSelectivity(const Query& query) override;
  /// Mean of the member batch estimates (each member serves the batch
  /// through its own serving engine; results match EstimateSelectivity).
  void EstimateBatch(const std::vector<Query>& queries,
                     std::vector<double>* out) override;
  /// Sum of member model sizes.
  size_t SizeBytes() const override { return size_bytes_; }

  size_t num_members() const { return members_.size(); }
  /// Estimate from member k alone (diagnostics, tests, ablations).
  double MemberEstimate(size_t k, const Query& query);
  const std::vector<size_t>& member_order(size_t k) const;

 private:
  struct Member {
    std::unique_ptr<OrderedModel> model;
    std::unique_ptr<NaruEstimator> estimator;
  };
  std::vector<Member> members_;
  size_t size_bytes_ = 0;
  std::string name_;
};

}  // namespace naru
