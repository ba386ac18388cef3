// Fig. 10 & 11: data-distortion analysis and the valid compression-ratio
// range.
//
// Fig. 10's narrative: with SZ on Nyx baryon density, small error bounds
// preserve structure while large ones destroy it; the paper quantifies this
// with the fraction of halos mislocated (0.46% / 10.81% / 79.17% at error
// bounds 0.001 / 0.05 / 0.45). We reproduce the monotone ramp with a
// local-maxima displacement metric. Fig. 11: the valid CR range is where
// distortion stays acceptable.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/compressors/compressor.h"
#include "src/data/generators/nyx.h"
#include "src/data/generators/qmcpack.h"
#include "src/data/statistics.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("Distortion vs error bound; valid compression-ratio range",
              "Fig. 10 and Fig. 11");

  NyxConfig config = NyxConfig1();
  const double s = BenchScale();
  config.nz = config.ny = config.nx = std::max<size_t>(16, size_t(64 * s));
  const Tensor baryon = GenerateNyxField(config, "baryon_density", 3);
  const SummaryStats st = ComputeSummary(baryon);
  const auto sz = MakeCompressor("sz");

  // Fig. 10: halo-displacement ramp. The paper's error bounds are relative
  // to the Nyx value range; the halo threshold picks overdense peaks.
  const float halo_threshold = static_cast<float>(st.mean * 3.0);
  std::printf("\nHalo (local maxima > 3x mean) displacement on Nyx baryon\n");
  std::printf("%16s %10s %10s %16s\n", "rel error bound", "ratio", "PSNR",
              "halos mislocated");
  for (double rel : {0.001, 0.01, 0.05, 0.15, 0.45}) {
    const double eb = rel * st.value_range;
    const std::vector<uint8_t> bytes = sz->Compress(baryon, eb).value();
    Tensor rec;
    if (!sz->Decompress(bytes.data(), bytes.size(), &rec).ok()) return 1;
    const DistortionStats d = ComputeDistortion(baryon, rec);
    const double displaced =
        MaximaDisplacementFraction(baryon, rec, halo_threshold);
    std::printf("%16.3f %9.1fx %9.1fdB %15.2f%%\n", rel,
                static_cast<double>(baryon.size_bytes()) / bytes.size(),
                d.psnr, 100.0 * displaced);
  }
  std::printf("(paper: 0.46%% / 10.81%% / 79.17%% at 0.001 / 0.05 / 0.45)\n");

  // Fig. 11: valid CR ranges -- the CR where PSNR crosses a floor.
  std::printf("\nValid compression-ratio range (SZ), PSNR floor 40 dB\n");
  struct Entry {
    const char* label;
    Tensor data;
  };
  std::vector<Entry> entries;
  entries.push_back({"Nyx baryon", baryon});
  entries.push_back(
      {"QMCPack-3 spin0", GenerateQmcpackOrbitals(QmcpackConfig3(), 0)});
  for (const Entry& e : entries) {
    const SummaryStats es = ComputeSummary(e.data);
    double max_valid_ratio = 1.0;
    for (double rel = 1e-5; rel <= 0.5; rel *= 2.0) {
      const double eb = rel * es.value_range;
      const std::vector<uint8_t> bytes = e.data.size_bytes() == 0
                                             ? std::vector<uint8_t>()
                                             : sz->Compress(e.data, eb).value();
      Tensor rec;
      if (!sz->Decompress(bytes.data(), bytes.size(), &rec).ok()) return 1;
      const DistortionStats d = ComputeDistortion(e.data, rec);
      const double ratio =
          static_cast<double>(e.data.size_bytes()) / bytes.size();
      if (d.psnr >= 40.0) max_valid_ratio = ratio;
    }
    std::printf("%-18s valid CR range: [1, ~%.0f]\n", e.label,
                max_valid_ratio);
  }
  return 0;
}
