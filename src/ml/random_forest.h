// Random Forest Regressor -- the model FXRZ adopts (paper Sec. IV-D).
//
// Bagged CART trees with per-split random feature subsampling; the
// prediction is the mean of the trees. Deterministic for a fixed seed.

#ifndef FXRZ_ML_RANDOM_FOREST_H_
#define FXRZ_ML_RANDOM_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/ml/decision_tree.h"
#include "src/ml/regressor.h"
#include "src/util/status.h"

namespace fxrz {

struct RandomForestParams {
  int num_trees = 100;
  int max_depth = 16;
  int min_samples_leaf = 2;
  // Features per split; 0 = all features (the usual regression-forest
  // default -- with few, partly redundant features, sqrt-style subsampling
  // wastes most splits).
  int max_features = 0;
  uint64_t seed = 17;
};

class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(RandomForestParams params = {})
      : params_(params) {}

  void Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  std::vector<double> PredictBatch(const FeatureMatrix& x) const override;
  // Mean/min/max/stddev over the per-tree predictions -- the confidence
  // signal the guarded serving layer gates on (core/guard.h).
  bool PredictWithStats(const std::vector<double>& x,
                        PredictionStats* stats) const override;

  size_t tree_count() const { return trees_.size(); }

  // Model persistence (used by FxrzModel::Save/Load).
  void Serialize(std::vector<uint8_t>* out) const;
  Status Deserialize(const uint8_t* data, size_t size, size_t* consumed);

 private:
  RandomForestParams params_;
  std::vector<DecisionTreeRegressor> trees_;
};

}  // namespace fxrz

#endif  // FXRZ_ML_RANDOM_FOREST_H_
