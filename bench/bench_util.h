// Shared helpers for the table/figure reproduction harnesses.
//
// Every bench binary regenerates one table or figure of the paper on the
// synthetic dataset catalog. FXRZ_BENCH_SCALE (default 0.5) shrinks or
// grows the grids; absolute numbers move with scale but the qualitative
// shape of each result does not.

#ifndef FXRZ_BENCH_BENCH_UTIL_H_
#define FXRZ_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/data/generators/catalog.h"
#include "src/data/tensor.h"

namespace fxrz_bench {

// Grid-scale factor from the environment (FXRZ_BENCH_SCALE), default 0.5.
inline double BenchScale() {
  if (const char* env = std::getenv("FXRZ_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.05 && v <= 2.0) return v;
  }
  return 0.5;
}

inline fxrz::CatalogOptions BenchCatalogOptions() {
  fxrz::CatalogOptions opts;
  opts.scale = BenchScale();
  return opts;
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s; synthetic catalog, scale %.2f)\n",
              paper_ref.c_str(), BenchScale());
  std::printf("==============================================================\n");
}

inline std::vector<const fxrz::Tensor*> Pointers(
    const std::vector<fxrz::NamedDataset>& sets) {
  std::vector<const fxrz::Tensor*> out;
  out.reserve(sets.size());
  for (const auto& s : sets) out.push_back(&s.data);
  return out;
}

// Compression ratio of one codec run at `config`; aborts if the run fails.
inline double MeasuredRatio(const fxrz::Compressor& comp,
                            const fxrz::Tensor& data, double config) {
  return static_cast<double>(data.size_bytes()) /
         static_cast<double>(comp.Compress(data, config).value().size());
}

}  // namespace fxrz_bench

#endif  // FXRZ_BENCH_BENCH_UTIL_H_
