// FRaZ baseline (Underwood et al., IPDPS'20) -- the paper's only
// compressor-agnostic fixed-ratio competitor.
//
// FRaZ finds the error configuration for a target ratio by trial and error:
// it splits the global config range into k bins and iteratively *runs the
// compressor on the full dataset* inside each bin until the measured ratio
// is close enough or the per-bin iteration budget is exhausted. Its analysis
// cost is therefore a multiple of the compression time (paper Table VIII),
// which is exactly what FXRZ eliminates.

#ifndef FXRZ_FRAZ_FRAZ_H_
#define FXRZ_FRAZ_FRAZ_H_

#include "src/compressors/compressor.h"
#include "src/data/tensor.h"
#include "src/util/status.h"

namespace fxrz {

struct FrazOptions {
  int num_bins = 3;               // paper: k = 3
  int total_max_iterations = 15;  // paper evaluates 6 and 15
  // Early-exit tolerance on |measured - target| / target.
  double tolerance = 0.01;
};

struct FrazResult {
  double config = 0.0;
  double achieved_ratio = 0.0;
  int compressor_runs = 0;  // successful probes
  double search_seconds = 0.0;
  Status status;  // the failed probe's Status, if one ended the search
};

// Searches for the config whose measured ratio is closest to target_ratio.
// Probes run through Compressor::Compress; a failed probe ends the search.
FrazResult FrazSearch(const Compressor& compressor, const Tensor& data,
                      double target_ratio, const FrazOptions& options = {});

}  // namespace fxrz

#endif  // FXRZ_FRAZ_FRAZ_H_
