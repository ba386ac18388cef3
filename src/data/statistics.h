// Summary statistics and distortion metrics on tensors.
//
// These back three parts of the paper: the feature analysis (Table I/II uses
// Pearson correlation), the dataset-variability study (Fig. 8/9 uses
// histograms and standard deviation), and the distortion analysis (Fig. 10/11
// uses PSNR and value-range-relative error).

#ifndef FXRZ_DATA_STATISTICS_H_
#define FXRZ_DATA_STATISTICS_H_

#include <cstddef>
#include <vector>

#include "src/data/tensor.h"

namespace fxrz {

// Basic moments and extrema of a dataset.
struct SummaryStats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double value_range = 0.0;  // max - min
};

// Computes SummaryStats over all elements. Requires a non-empty tensor.
SummaryStats ComputeSummary(const Tensor& t);

// max - min over all elements in one pass, bit-identical to
// ComputeSummary(t).value_range. Requires a non-empty tensor.
double ValueRange(const Tensor& t);

// Pearson product-moment correlation coefficient of two equal-length series.
// Returns 0 when either series is constant.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

// Distortion metrics between an original and its lossy reconstruction.
struct DistortionStats {
  double max_abs_error = 0.0;
  double mse = 0.0;
  double rmse = 0.0;
  double nrmse = 0.0;  // rmse / value range of original
  double psnr = 0.0;   // 20*log10(range / rmse); +inf clamped to 999
  // Element pairs skipped by the non-finite policy below.
  size_t nonfinite_skipped = 0;
};

// Computes distortion metrics. Requires matching shapes.
//
// Non-finite policy: element pairs where either side is NaN/Inf are
// SKIPPED (counted in nonfinite_skipped) so a single bad sample cannot
// poison the global error sums; the averages run over the finite pairs
// only. All-finite inputs are unaffected. When no finite pair exists the
// error metrics are all zero and psnr is the 999 clamp.
DistortionStats ComputeDistortion(const Tensor& original,
                                  const Tensor& reconstructed);

// Fixed-width histogram over [min, max] of the data (used by the Fig. 8
// variability study). Returns `bins` counts.
std::vector<size_t> Histogram(const Tensor& t, size_t bins);

// Locates local maxima above `threshold` on a 3D tensor -- a lightweight
// stand-in for the Nyx halo finder used in the paper's Fig. 10 discussion.
// Returns linear offsets of cells strictly greater than their 6 neighbors.
std::vector<size_t> FindLocalMaxima3D(const Tensor& t, float threshold);

// Fraction of maxima in `original` that moved or vanished in `reconstructed`
// (the paper's "halos mislocated" metric). Both tensors must be 3D and of the
// same shape.
double MaximaDisplacementFraction(const Tensor& original,
                                  const Tensor& reconstructed,
                                  float threshold);

}  // namespace fxrz

#endif  // FXRZ_DATA_STATISTICS_H_
