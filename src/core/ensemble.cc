#include "core/ensemble.h"

#include "util/string_util.h"

namespace naru {

MultiOrderEnsemble::MultiOrderEnsemble(const Table& table,
                                       MultiOrderConfig config) {
  NARU_CHECK(config.num_orders >= 1);
  const size_t n = table.num_columns();
  std::vector<size_t> table_domains(n);
  for (size_t c = 0; c < n; ++c) {
    table_domains[c] = table.column(c).DomainSize();
  }

  Rng order_rng(config.order_seed);
  members_.reserve(config.num_orders);
  for (size_t k = 0; k < config.num_orders; ++k) {
    std::vector<size_t> order;
    if (k == 0) {
      order.resize(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
    } else {
      order = OrderedModel::RandomOrder(n, &order_rng);
    }

    MadeModel::Config mcfg = config.model;
    mcfg.seed = config.model.seed + k;
    auto inner = std::make_unique<MadeModel>(
        OrderedModel::PermuteDomains(table_domains, order), mcfg);
    auto model =
        std::make_unique<OrderedModel>(std::move(inner), std::move(order));

    TrainerConfig tcfg = config.trainer;
    tcfg.shuffle_seed = config.trainer.shuffle_seed + k;
    Trainer(model.get(), tcfg).Train(table);

    NaruEstimatorConfig ecfg = config.estimator;
    ecfg.sampler_seed = config.estimator.sampler_seed + k;
    const size_t bytes = model->SizeBytes();
    size_bytes_ += bytes;
    auto est = std::make_unique<NaruEstimator>(
        model.get(), ecfg, bytes, StrFormat("NaruOrd%zu", k));
    members_.push_back(Member{std::move(model), std::move(est)});
  }
  name_ = StrFormat("Naru-%zuo-%zu", members_.size(),
                    config.estimator.num_samples);
}

double MultiOrderEnsemble::EstimateSelectivity(const Query& query) {
  double sum = 0;
  for (auto& m : members_) sum += m.estimator->EstimateSelectivity(query);
  return sum / static_cast<double>(members_.size());
}

void MultiOrderEnsemble::EstimateBatch(const std::vector<Query>& queries,
                                       std::vector<double>* out) {
  // Each member serves the whole batch through its engine; summing member
  // results in member order matches one-query EstimateSelectivity bit for
  // bit.
  out->assign(queries.size(), 0.0);
  std::vector<double> member_out;
  for (auto& m : members_) {
    m.estimator->EstimateBatch(queries, &member_out);
    for (size_t i = 0; i < queries.size(); ++i) (*out)[i] += member_out[i];
  }
  const double k = static_cast<double>(members_.size());
  for (double& v : *out) v /= k;
}

double MultiOrderEnsemble::MemberEstimate(size_t k, const Query& query) {
  NARU_CHECK(k < members_.size());
  return members_[k].estimator->EstimateSelectivity(query);
}

const std::vector<size_t>& MultiOrderEnsemble::member_order(size_t k) const {
  NARU_CHECK(k < members_.size());
  return members_[k].model->order();
}

}  // namespace naru
