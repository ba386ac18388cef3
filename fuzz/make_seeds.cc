// Seed-corpus generator: writes one valid archive per decoder into
// <out_dir>/<target>/, produced by real round-trips over a small Gaussian
// random field. Fuzzers (or the standalone replay driver) start from these
// so they reach deep decode paths immediately instead of fighting the magic
// number.
//
// Usage: fxrz_fuzz_make_seeds OUT_DIR

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/compressors/chunked.h"
#include "src/compressors/compressor.h"
#include "src/compressors/zfp.h"
#include "src/core/model.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/encoding/huffman.h"
#include "src/encoding/zlite.h"
#include "src/store/container.h"
#include "src/store/field_store.h"
#include "src/util/random.h"

namespace {

bool WriteSeed(const std::string& dir, const std::string& name,
               const std::vector<uint8_t>& bytes) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return written == bytes.size();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  const std::string out_dir = argv[1];
  const fxrz::Tensor data = fxrz::GaussianRandomField3D(16, 16, 16, 3.0, 42);
  const fxrz::Tensor small = fxrz::GaussianRandomField3D(8, 8, 8, 3.0, 43);

  bool ok = true;
  for (const std::string& name : fxrz::ExtendedCompressorNames()) {
    const auto comp = fxrz::MakeCompressor(name);
    const fxrz::ConfigSpace space = comp->config_space(fxrz::ValueRange(data));
    const double config = space.integer ? 12.0 : 0.01;
    ok &= WriteSeed(out_dir + "/" + name, "roundtrip.bin",
                    comp->Compress(data, config).value());
    ok &= WriteSeed(out_dir + "/" + name, "roundtrip_small.bin",
                    comp->Compress(small, space.integer ? 16.0 : 0.05)
                        .value());
  }

  {
    // fpzip cuts fields of 2^16 elements and more into entropy segments;
    // this one holds two, so the replay reaches the segment table.
    const fxrz::Tensor field =
        fxrz::GaussianRandomField3D(64, 32, 32, 3.0, 44);
    ok &= WriteSeed(out_dir + "/fpzip", "two_segments.bin",
                    fxrz::MakeCompressor("fpzip")->Compress(field, 12).value());
  }

  {
    // zfp cuts its blocks into segments of 128 and records each one's bit
    // length; these 32^3 fields hold four, so the replay reaches the
    // segment table and the parallel decode in both modes.
    const fxrz::Tensor field =
        fxrz::GaussianRandomField3D(32, 32, 32, 3.0, 48);
    const fxrz::ZfpCompressor zfp;
    ok &= WriteSeed(out_dir + "/zfp", "four_segments.bin",
                    zfp.Compress(field, 1e-3 * fxrz::ValueRange(field))
                        .value());
    ok &= WriteSeed(out_dir + "/zfp", "four_segments_fixed_rate.bin",
                    zfp.CompressFixedRate(field, 6.0).value());
  }

  {
    // sz's quantization codes decode in parallel ranges once their Huffman
    // payload reaches 16 KiB; this field's 2^17 codes take about 3 bits
    // each, so the replay runs the range resynchronization.
    const fxrz::Tensor field =
        fxrz::GaussianRandomField3D(32, 64, 64, 3.0, 45);
    ok &= WriteSeed(out_dir + "/sz", "multi_range.bin",
                    fxrz::MakeCompressor("sz")
                        ->Compress(field, 1e-3 * fxrz::ValueRange(field))
                        .value());
  }

  {
    // sz's quantization codes are stored in 6^3 blocks, a row of blocks
    // (6 z-planes, 24576 codes here) after another. Zeroing z in [20, 44)
    // makes the rows for z in [24, 42) one run of the zero-error code,
    // codes 98304 to 172032, across the 2^17 boundary between encode
    // ranges; the rest keeps the payload above the 16 KiB at which the
    // decode splits into ranges.
    fxrz::Tensor field = fxrz::GaussianRandomField3D(64, 64, 64, 3.0, 46);
    std::fill(field.data() + 20 * 64 * 64, field.data() + 44 * 64 * 64,
              0.0f);
    ok &= WriteSeed(out_dir + "/sz", "runs_across_ranges.bin",
                    fxrz::MakeCompressor("sz")
                        ->Compress(field, 1e-3 * fxrz::ValueRange(field))
                        .value());
  }

  {
    // One row per slab: a 16-chunk sz archive.
    fxrz::ChunkedCompressor chunked(fxrz::MakeCompressor("sz"),
                                    /*target_chunk_elems=*/256);
    std::vector<uint8_t> archive = chunked.Compress(data, 0.01).value();
    ok &= WriteSeed(out_dir + "/chunked", "roundtrip.bin", archive);
    // The same archive with its last payload byte flipped: the replay
    // reaches the checksum failure of both Decompress and VerifyIntegrity.
    archive.back() ^= 0x01;
    ok &= !chunked.VerifyIntegrity(archive.data(), archive.size()).ok();
    ok &= WriteSeed(out_dir + "/chunked", "bad_crc.bin", archive);
  }

  {
    // Entropy-coder seeds: the exact streams the SZ-like codec produces.
    std::vector<uint32_t> symbols(512);
    for (size_t i = 0; i < symbols.size(); ++i) {
      symbols[i] = static_cast<uint32_t>(32768 + (i % 7) - 3);
    }
    ok &= WriteSeed(out_dir + "/huffman", "codes.bin",
                    fxrz::HuffmanEncode(symbols));
    // 2^17 codes of 2-6 bits: a payload of several 8 KiB decode ranges.
    std::vector<uint32_t> many(size_t{1} << 17);
    for (size_t i = 0; i < many.size(); ++i) {
      many[i] = static_cast<uint32_t>(32768 + (i * i + i / 3) % 23) - 11;
    }
    const std::vector<uint8_t> multi_range = fxrz::HuffmanEncode(many);
    ok &= fxrz::huffman_internal::DecodeRangeCount(multi_range.data(),
                                                   multi_range.size()) > 1;
    ok &= WriteSeed(out_dir + "/huffman", "multi_range.bin", multi_range);
    // A run-coded stream: runs of up to 256 codes between wide codes, so
    // most codewords are run digits and the decode's range boundaries fall
    // inside runs; the last run crosses the final encode range boundary.
    std::vector<uint32_t> runs;
    fxrz::Rng runs_rng(47);
    while (runs.size() < 700000) {
      runs.insert(runs.end(), 1 + runs_rng.NextBelow(256), 32768);
      runs.push_back(static_cast<uint32_t>(runs_rng.NextBelow(4096)));
    }
    runs.insert(runs.end(), 100000, 32768);
    ok &= WriteSeed(out_dir + "/huffman", "runs.bin",
                    fxrz::HuffmanEncodeRuns(runs));
    std::vector<uint8_t> text(1024);
    for (size_t i = 0; i < text.size(); ++i) {
      text[i] = static_cast<uint8_t>((i * i) % 251);
    }
    ok &= WriteSeed(out_dir + "/zlite", "text.bin",
                    fxrz::ZliteCompress(text));
    // The harness also compresses its input. This one is 512 KiB of bytes
    // with a 128 KiB zero run across the middle, out of phase with a
    // range that starts there, so a split in two or four ranges parses a
    // range again from its true entry.
    fxrz::Rng rng(46);
    std::vector<uint8_t> long_run(size_t{1} << 19);
    for (uint8_t& b : long_run) b = static_cast<uint8_t>(rng.NextBelow(256));
    const size_t middle = long_run.size() / 2;
    std::fill(long_run.begin() + static_cast<long>(middle - (1 << 16) + 7),
              long_run.begin() + static_cast<long>(middle + (1 << 16)), 0);
    ok &= fxrz::zlite_internal::CompressInRanges(long_run, 2).reparses > 0;
    ok &= WriteSeed(out_dir + "/zlite", "long_run.bin", long_run);
    // The arith harness drives the decoder directly over raw bytes.
    ok &= WriteSeed(out_dir + "/arith", "raw.bin", text);
  }

  {
    fxrz::FieldStoreWriter writer("sz");
    ok &= writer.AddFieldFixedConfig("density", small, 0.02).ok();
    ok &= WriteSeed(out_dir + "/field_store", "store.bin",
                    writer.Serialize());
  }

  {
    // Checksummed-container seeds: one of each section kind the adopters
    // write, plus a multi-section file so the fuzzer mutates TOC walks.
    ok &= WriteSeed(out_dir + "/container", "archive.bin",
                    fxrz::WrapInContainer("archive:sz",
                                          fxrz::MakeCompressor("sz")
                                              ->Compress(small, 0.02)
                                              .value()));
    fxrz::FieldStoreWriter writer("sz");
    ok &= writer.AddFieldFixedConfig("density", small, 0.02).ok();
    ok &= WriteSeed(out_dir + "/container", "store.bin",
                    fxrz::WrapInContainer(fxrz::kSectionFieldStore,
                                          writer.Serialize()));
    fxrz::ContainerWriter multi;
    ok &= multi.AddSection("alpha", {1, 2, 3, 4}).ok();
    ok &= multi.AddSection("beta", {}).ok();
    ok &= multi.AddSection("gamma", std::vector<uint8_t>(100, 0x5A)).ok();
    ok &= WriteSeed(out_dir + "/container", "multi.bin", multi.Serialize());
  }

  if (!ok) return 1;
  std::printf("seed corpora written to %s\n", out_dir.c_str());
  return 0;
}
