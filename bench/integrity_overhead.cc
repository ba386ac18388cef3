// Integrity-overhead bench: what checksumming costs relative to the
// compression work it protects (acceptance gate: < 5% of compress wall
// time on the 256^3 field).
//
// Measures, per compressor on a 256^3 GRF:
//   compress      one full-tensor chunked compression (includes per-chunk
//                 CRC32C + index seal, i.e. the checksummed v2 writer)
//   crc           CRC32C over the produced archive (the container wrap
//                 cost on write, and the verify cost on read)
//   verify        ChunkedCompressor::VerifyIntegrity (index + all chunks)
//
// and prints crc and verify as a percentage of compress time.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/chunked.h"
#include "src/compressors/compressor.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/util/checksum.h"

namespace {

using namespace fxrz;

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = (argc > 1 && std::string(argv[1]) == "--small") ? 64 : 256;
  const Tensor data = GaussianRandomField3D(n, n, n, 3.0, 515);
  std::printf("field: %zu^3 (%.1f MB)\n\n", n,
              data.size_bytes() / 1048576.0);
  std::printf("%-8s %12s %12s %12s %9s %9s\n", "comp", "compress_s", "crc_s",
              "verify_s", "crc_%", "verify_%");

  for (const char* name : {"sz", "zfp"}) {
    ChunkedCompressor comp(MakeCompressor(name));
    const ConfigSpace space = comp.config_space(ValueRange(data));
    const double config = space.integer ? 16 : space.min * 100;

    std::vector<uint8_t> bytes;
    const double compress_s = TimeSeconds([&] {
      bytes = comp.Compress(data, config).value();
    });

    uint32_t crc = 0;
    const double crc_s = TimeSeconds([&] {
      crc = Crc32c::Compute(bytes.data(), bytes.size());
    });
    const double verify_s = TimeSeconds([&] {
      if (!comp.VerifyIntegrity(bytes.data(), bytes.size()).ok()) {
        std::fprintf(stderr, "verify failed\n");
      }
    });
    (void)crc;

    std::printf("%-8s %12.4f %12.6f %12.6f %8.2f%% %8.2f%%\n", name,
                compress_s, crc_s, verify_s, 100.0 * crc_s / compress_s,
                100.0 * verify_s / compress_s);
  }
  return 0;
}
