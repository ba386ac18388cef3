#include "src/ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/encoding/bit_stream.h"
#include "src/util/check.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace fxrz {

void RandomForestRegressor::Fit(const FeatureMatrix& x,
                                const std::vector<double>& y) {
  FXRZ_CHECK(!x.empty());
  FXRZ_CHECK_EQ(x.size(), y.size());

  const int num_features = static_cast<int>(x[0].size());
  int max_features = params_.max_features;
  if (max_features <= 0) max_features = num_features;

  // All randomness comes from one serial stream, drawn up front in tree
  // order: each tree gets its bootstrap index multiset and split seed
  // before any fitting starts. The fits themselves touch only per-tree
  // state, so running them in parallel yields the exact forest the serial
  // loop would.
  const size_t n = x.size();
  const size_t num_trees = static_cast<size_t>(params_.num_trees);
  Rng rng(params_.seed);
  std::vector<std::vector<int>> bootstraps(num_trees);
  std::vector<uint64_t> tree_seeds(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    bootstraps[t].resize(n);
    for (size_t i = 0; i < n; ++i) {
      bootstraps[t][i] = static_cast<int>(rng.NextBelow(n));
    }
    tree_seeds[t] = rng.NextUint64();
  }

  trees_.assign(num_trees, DecisionTreeRegressor());
  auto fit_tree = [&](size_t t) {
    DecisionTreeParams tp;
    tp.max_depth = params_.max_depth;
    tp.min_samples_leaf = params_.min_samples_leaf;
    tp.max_features = max_features;
    tp.seed = tree_seeds[t];
    trees_[t] = DecisionTreeRegressor(tp);
    trees_[t].FitSampled(x, y, bootstraps[t]);
  };
  if (params_.threads == 1 || num_trees <= 1) {
    for (size_t t = 0; t < num_trees; ++t) fit_tree(t);
  } else {
    ParallelFor(SharedThreadPool(), 0, num_trees, fit_tree, /*grain=*/1);
  }
}

double RandomForestRegressor::Predict(const std::vector<double>& x) const {
  FXRZ_CHECK(!trees_.empty()) << "Predict before Fit";
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.Predict(x);
  return sum / static_cast<double>(trees_.size());
}

bool RandomForestRegressor::PredictWithStats(const std::vector<double>& x,
                                             PredictionStats* stats) const {
  FXRZ_CHECK(!trees_.empty()) << "Predict before Fit";
  FXRZ_CHECK(stats != nullptr);
  const double n = static_cast<double>(trees_.size());
  double sum = 0.0, sum_sq = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& tree : trees_) {
    const double p = tree.Predict(x);
    sum += p;
    sum_sq += p * p;
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  stats->mean = sum / n;
  stats->min = lo;
  stats->max = hi;
  const double var = std::max(0.0, sum_sq / n - stats->mean * stats->mean);
  stats->stddev = std::sqrt(var);
  return true;
}

std::vector<double> RandomForestRegressor::PredictBatch(
    const FeatureMatrix& x) const {
  FXRZ_CHECK(!trees_.empty()) << "Predict before Fit";
  std::vector<double> out(x.size());
  auto predict_row = [&](size_t i) { out[i] = Predict(x[i]); };
  if (params_.threads == 1 || x.size() <= 1) {
    for (size_t i = 0; i < x.size(); ++i) predict_row(i);
  } else {
    ParallelFor(SharedThreadPool(), 0, x.size(), predict_row);
  }
  return out;
}

void RandomForestRegressor::Serialize(std::vector<uint8_t>* out) const {
  AppendUint32(out, static_cast<uint32_t>(trees_.size()));
  for (const auto& tree : trees_) tree.Serialize(out);
}

Status RandomForestRegressor::Deserialize(const uint8_t* data, size_t size,
                                          size_t* consumed) {
  FXRZ_CHECK(consumed != nullptr);
  if (size < 4) return Status::Corruption("rfr: short stream");
  const uint32_t count = ReadUint32(data);
  // Each serialized tree takes at least 4 bytes; reject absurd counts
  // before allocating.
  if (count > (size - 4) / 4 + 1) return Status::Corruption("rfr: bad count");
  size_t pos = 4;
  trees_.assign(count, DecisionTreeRegressor());
  for (uint32_t i = 0; i < count; ++i) {
    const size_t used = trees_[i].Deserialize(data + pos, size - pos);
    if (used == 0) return Status::Corruption("rfr: bad tree");
    pos += used;
  }
  *consumed = pos;
  return Status::Ok();
}

}  // namespace fxrz
