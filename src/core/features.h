// Data feature extraction (paper Sec. IV-C and IV-E1).
//
// Eight candidate features are computed on a uniform stride-K subsample of
// the dataset. The five the paper adopts (Value Range, Mean Value, Mean
// Neighbor Difference, Mean Lorenzo Difference, Mean Spline Difference) form
// the model inputs; the three gradient features are computed for the
// correlation study (Table II) but excluded from the model.
//
// The extractor is a fused single-pass kernel: every feature's per-element
// contribution is computed in one sweep with flat-index arithmetic, and the
// outer dimension is split into fixed-size slabs whose partial sums are
// merged in slab order -- so results are bit-identical at any thread count.
//
// Non-finite policy: NaN/Inf samples are SKIPPED. A sample contributes to
// range/mean only when it is finite, and a stencil contribution (MND, MLD,
// MSD, gradient) is accumulated only when it evaluates to a finite value --
// so one NaN poisons neither the global sums nor its neighbors' counts.
// All-finite tensors are bit-identical to the unguarded kernel. A tensor
// with no finite samples yields all-zero features. (The guarded serving
// layer rejects non-finite tensors at admission; this policy is defense in
// depth for direct callers.)

#ifndef FXRZ_CORE_FEATURES_H_
#define FXRZ_CORE_FEATURES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/data/tensor.h"

namespace fxrz {

// All eight candidate features of one dataset.
struct FeatureVector {
  double value_range = 0.0;
  double mean_value = 0.0;
  double mnd = 0.0;  // mean |v - average of adjacent neighbors|
  double mld = 0.0;  // mean |v - Lorenzo prediction|
  double msd = 0.0;  // mean |v - cubic-spline fit| (wave-texture detector)
  double mean_gradient = 0.0;
  double min_gradient = 0.0;
  double max_gradient = 0.0;
};

struct FeatureOptions {
  // Sampling stride per dimension (paper default 4 => ~1.5% of points in 3D).
  size_t stride = 4;
};

// Extracts all eight features from a stride-sampled view of `data` with the
// fused single-pass kernel.
FeatureVector ExtractFeatures(const Tensor& data,
                              const FeatureOptions& options = {});

// Legacy multi-pass odometer implementation, retained as the baseline for
// the micro_analysis benchmark and as a cross-check in tests. Semantically
// identical to ExtractFeatures up to floating-point summation order.
FeatureVector ExtractFeaturesReference(const Tensor& data,
                                       const FeatureOptions& options = {});

// Number of (fused) ExtractFeatures calls made by this process. Test hook
// for verifying that analysis caching eliminates redundant extractions.
uint64_t FeatureExtractionCount();

// The five adopted features, transformed for the regressor: heavy-tailed
// magnitudes are log-compressed (log10(x + eps)), the mean uses a signed
// log. Order: range, mean, MND, MLD, MSD.
std::vector<double> FeatureModelInputs(const FeatureVector& f);

// Value of a feature by name ("value_range", "mean_value", "mnd", "mld",
// "msd", "mean_gradient", "min_gradient", "max_gradient"); aborts on
// unknown names. Used by the Table II correlation bench.
double FeatureByName(const FeatureVector& f, const std::string& name);

// Names in the Table II column order.
std::vector<std::string> AllFeatureNames();

}  // namespace fxrz

#endif  // FXRZ_CORE_FEATURES_H_
