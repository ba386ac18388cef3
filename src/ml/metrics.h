// Regression quality metrics.

#ifndef FXRZ_ML_METRICS_H_
#define FXRZ_ML_METRICS_H_

#include <vector>

namespace fxrz {

// Mean absolute percentage error: mean(|t - p| / max(|t|, eps)).
// This is the paper's "estimation error" shape (Formula 5). Requires equal
// non-zero lengths.
double MeanAbsolutePercentageError(const std::vector<double>& truth,
                                   const std::vector<double>& pred);

}  // namespace fxrz

#endif  // FXRZ_ML_METRICS_H_
