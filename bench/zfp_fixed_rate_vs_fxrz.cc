// Related Work reproduction: ZFP's native fixed-rate mode vs fixed-ratio
// compression through FXRZ's fixed-accuracy path.
//
// ZFP is the only compressor with a built-in fixed-ratio ("fixed-rate")
// mode, but the paper (citing FRaZ's study) notes it costs ~2x compression
// ratio at equal distortion compared with the fixed-accuracy mode. This
// bench pins the compressed size with both approaches and compares the
// reconstruction quality -- the motivating gap FXRZ exists to close.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/compressors/zfp.h"
#include "src/core/pipeline.h"
#include "src/data/generators/catalog.h"
#include "src/data/statistics.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("ZFP fixed-rate vs FXRZ(fixed-accuracy) at equal size",
              "Sec. II Related Work");

  const TrainTestBundle bundle =
      MakeNyxBundle("baryon_density", BenchCatalogOptions());
  Fxrz fxrz(std::make_unique<ZfpCompressor>());
  fxrz.Train(Pointers(bundle.train));
  const Tensor& test = bundle.test[0].data;
  ZfpCompressor zfp;

  std::printf("%10s %16s %16s %14s %14s\n", "ratio", "fixed-rate PSNR",
              "FXRZ PSNR", "rate bytes", "FXRZ bytes");
  for (double target : {4.0, 6.0, 8.0}) {
    // Fixed-rate: bits/value chosen to hit the ratio exactly.
    const double rate = 32.0 / target;
    const std::vector<uint8_t> rate_bytes = zfp.CompressFixedRate(test, rate);
    Tensor rate_rec;
    if (!zfp.Decompress(rate_bytes.data(), rate_bytes.size(), &rate_rec).ok())
      return 1;
    const double rate_psnr = ComputeDistortion(test, rate_rec).psnr;

    // FXRZ: estimate the accuracy-mode error bound for the same ratio.
    const auto result =
        fxrz.GuardedCompressToRatio(test, target, PaperPolicy(1)).value();
    Tensor fxrz_rec;
    if (!zfp.Decompress(result.compressed.data(), result.compressed.size(),
                        &fxrz_rec)
             .ok())
      return 1;
    const double fxrz_psnr = ComputeDistortion(test, fxrz_rec).psnr;

    std::printf("%9.1fx %15.1fdB %15.1fdB %14zu %14zu\n", target, rate_psnr,
                fxrz_psnr, rate_bytes.size(), result.compressed.size());
  }
  std::printf(
      "\nShape check: at (approximately) matched compressed sizes, the\n"
      "fixed-accuracy path reaches equal-or-higher PSNR than ZFP's\n"
      "fixed-rate mode -- the Related-Work gap motivating FXRZ.\n");
  return 0;
}
