// Common interface for the regression models evaluated in the paper's
// Table III (Random Forest, AdaBoost.R2, SVR).

#ifndef FXRZ_ML_REGRESSOR_H_
#define FXRZ_ML_REGRESSOR_H_

#include <vector>

namespace fxrz {

// Feature matrix: rows are samples, columns features. All rows must have
// the same length.
using FeatureMatrix = std::vector<std::vector<double>>;

// Per-prediction uncertainty summary for models that can report one
// (ensembles expose the spread of their members' predictions).
struct PredictionStats {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;  // population stddev across ensemble members
};

// Abstract regression model.
class Regressor {
 public:
  virtual ~Regressor() = default;

  // Trains on (x, y). x must be non-empty and rectangular; |x| == |y|.
  virtual void Fit(const FeatureMatrix& x, const std::vector<double>& y) = 0;

  // Predicts the target for one feature vector. Requires a prior Fit.
  virtual double Predict(const std::vector<double>& x) const = 0;

  // Predicts every row of `x`. The default is a serial loop over Predict;
  // models whose per-sample cost is large enough to amortize dispatch
  // (e.g. forests) override it with a parallel version. Output order and
  // values are identical to the serial loop.
  virtual std::vector<double> PredictBatch(const FeatureMatrix& x) const {
    std::vector<double> out(x.size());
    for (size_t i = 0; i < x.size(); ++i) out[i] = Predict(x[i]);
    return out;
  }

  // Predicts with an uncertainty summary. Returns false (stats untouched)
  // when the model has no notion of member spread; `stats->mean` equals
  // Predict(x) when it returns true.
  virtual bool PredictWithStats(const std::vector<double>& x,
                                PredictionStats* stats) const {
    (void)x;
    (void)stats;
    return false;
  }
};

}  // namespace fxrz

#endif  // FXRZ_ML_REGRESSOR_H_
