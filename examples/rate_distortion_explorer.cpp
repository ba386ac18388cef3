// Rate-distortion explorer: sweep the error bound of every compressor on
// one dataset and print ratio + PSNR + max error -- the raw material behind
// the paper's distortion analysis (Sec. V-C).
//
// Run: ./example_rate_distortion_explorer [dataset]
//   dataset: nyx (default) | rtm | qmcpack | hurricane

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/data/generators/hurricane.h"
#include "src/data/generators/nyx.h"
#include "src/data/generators/qmcpack.h"
#include "src/data/generators/rtm.h"
#include "src/data/statistics.h"

namespace {

fxrz::Tensor MakeData(const std::string& name) {
  using namespace fxrz;
  if (name == "rtm") return SimulateRtmSnapshot(RtmSmallScaleConfig(), 250);
  if (name == "qmcpack") return GenerateQmcpackOrbitals(QmcpackConfig1(), 0);
  if (name == "hurricane") {
    return GenerateHurricaneField(HurricaneDefaultConfig(), "TC", 24);
  }
  return GenerateNyxField(NyxConfig1(), "baryon_density", 3);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fxrz;
  const std::string dataset = argc > 1 ? argv[1] : "nyx";
  const Tensor data = MakeData(dataset);
  std::printf("dataset %s (%s, %.1f MB)\n\n", dataset.c_str(),
              data.ShapeString().c_str(), data.size_bytes() / 1048576.0);

  for (const std::string& name : AllCompressorNames()) {
    const auto comp = MakeCompressor(name);
    const ConfigSpace space = comp->config_space(ValueRange(data));
    std::printf("--- %s (knob: %s%s in [%.4g, %.4g]) ---\n", name.c_str(),
                space.integer ? "integer " : "",
                space.log_scale ? "log-scale" : "linear", space.min,
                space.max);
    std::printf("%14s %10s %10s %12s\n", "config", "ratio", "PSNR",
                "max error");
    for (double f : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
      double config =
          space.log_scale
              ? std::pow(10.0, std::log10(space.min) +
                                   f * (std::log10(space.max) -
                                        std::log10(space.min)))
              : space.min + f * (space.max - space.min);
      if (space.integer) config = std::round(config);

      const StatusOr<std::vector<uint8_t>> archive =
          comp->Compress(data, config);
      if (!archive.ok()) {
        std::printf("compression failed: %s\n",
                    archive.status().ToString().c_str());
        return 1;
      }
      const std::vector<uint8_t>& bytes = archive.value();
      Tensor rec;
      const Status st = comp->Decompress(bytes.data(), bytes.size(), &rec);
      if (!st.ok()) {
        std::printf("decompression failed: %s\n", st.ToString().c_str());
        return 1;
      }
      const DistortionStats d = ComputeDistortion(data, rec);
      std::printf("%14.6g %9.2fx %9.1fdB %12.4g\n", config,
                  static_cast<double>(data.size_bytes()) / bytes.size(),
                  d.psnr, d.max_abs_error);
    }
    std::printf("\n");
  }
  return 0;
}
