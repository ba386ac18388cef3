#include "src/ml/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace fxrz {

double MeanAbsolutePercentageError(const std::vector<double>& truth,
                                   const std::vector<double>& pred) {
  FXRZ_CHECK_EQ(truth.size(), pred.size());
  FXRZ_CHECK(!truth.empty());
  double s = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const double denom = std::max(std::fabs(truth[i]), 1e-12);
    s += std::fabs(truth[i] - pred[i]) / denom;
  }
  return s / static_cast<double>(truth.size());
}

}  // namespace fxrz
