// Archive byte identity: the codecs' output bytes are frozen by hash. The
// archive hashes below were recorded from the single-threaded codecs, so any
// change to how a compression is split into parallel work units (sz's block
// selection and wavefront quantization, Huffman's histogram and range
// encoding and the run coding's range bounds, zfp's block ranges, fpzip's
// entropy segments) must reproduce those archives exactly, at any thread
// count and under any scheduling. Each case also pins the bytes its
// archive decodes to, so a kernel change that keeps the archive but moves
// a reconstructed float is caught too: fpzip's archive hashes were
// re-recorded when its residuals moved into segments, and those of sz, sz3
// and mgard when their code sections became run-coded with no zlite pass;
// their decode hashes were not. The decoded
// bytes are checked under the same schedules, since sz's Huffman stage and
// reconstruction, and the Huffman stage of sz3 and mgard, decode in
// parallel ranges and rows.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/compressors/chunked.h"
#include "src/compressors/compressor.h"
#include "src/compressors/zfp.h"
#include "src/data/generators/nyx.h"
#include "src/data/statistics.h"
#include "src/data/tensor.h"
#include "src/encoding/huffman.h"
#include "src/encoding/zlite.h"
#include "src/util/random.h"
#include "tests/compressors/chunk_count.h"
#include "tests/compressors/golden_hash.h"
#include "tests/util/workers_parked.h"

namespace fxrz {
namespace {

// ------------------------------------------------------------ codec archives

// Two deterministic Nyx fields: a small non-cubic one, and a 64^3 one whose
// sz codes span several Huffman encode ranges. Both have extents
// that are not multiples of sz's 6^3 block.
const Tensor& Field(int which) {
  static const Tensor* fields[2] = {nullptr, nullptr};
  static std::once_flag once;
  std::call_once(once, [] {
    NyxConfig small = NyxConfig1();
    small.nz = 16;
    small.ny = 32;
    small.nx = 32;
    NyxConfig large = NyxConfig1();
    large.nz = large.ny = large.nx = 64;
    fields[0] = new Tensor(GenerateNyxField(small, "baryon_density", 2));
    fields[1] = new Tensor(GenerateNyxField(large, "temperature", 5));
  });
  return *fields[which];
}

// The k-th of five configs spread evenly across config_space (in log space
// when the knob is log-scaled), endpoints included.
double ConfigAt(const ConfigSpace& space, int k) {
  const double t = k / 4.0;
  double c = space.log_scale
                 ? std::exp(std::log(space.min) +
                            t * (std::log(space.max) - std::log(space.min)))
                 : space.min + t * (space.max - space.min);
  if (space.integer) c = std::round(c);
  return c;
}

struct ArchiveCase {
  const char* codec;
  int field;
  int config;
  uint64_t hash;
  uint64_t decoded;
};

// codec, field, config index, FNV-1a of the archive, FNV-1a of the floats
// it decodes to.
constexpr ArchiveCase kArchives[] = {
    {"sz", 0, 0, 0x190af48a75419dcb, 0x56c36749d5b91416},
    {"sz", 0, 1, 0xd59e3578d56cd7c5, 0xec7194509b31bc07},
    {"sz", 0, 2, 0xd9c50bf7b467fdc6, 0xaf16cb49bcb86b0a},
    {"sz", 0, 3, 0xeddff56b85310b10, 0x9d0e5d49a0f8ede0},
    {"sz", 0, 4, 0xa965d09a38d5d01f, 0x38ce1369ab5e4932},
    {"sz", 1, 0, 0xbb1b6650ede6dc8a, 0x33107a9c7b9a8b93},
    {"sz", 1, 1, 0x3537520fd2efe919, 0x751654b899464a4b},
    {"sz", 1, 2, 0xc03c6691f89dbba9, 0x1057080080a894ff},
    {"sz", 1, 3, 0x47019b8cd159ad10, 0xb9111cb248161189},
    {"sz", 1, 4, 0x3980b6b588ee9911, 0xd3a43e7d4158ecbe},
    {"sz3", 0, 0, 0x0ffa545c117632fd, 0x240f6b30b6962d91},
    {"sz3", 0, 1, 0xa2dfe38844599d12, 0xf3cdaface56ff94a},
    {"sz3", 0, 2, 0xe95c21f1259a1367, 0xab8af639bc99589a},
    {"sz3", 0, 3, 0x3b0cda816d767756, 0xd0d7dc2c58fedaff},
    {"sz3", 0, 4, 0xdfa50820d0b11c93, 0x3098bd384a68e8d1},
    {"sz3", 1, 0, 0x6c565f3b2720c9c4, 0x0630538828545aeb},
    {"sz3", 1, 1, 0xe33ba687eb7c20f2, 0xe1dd348cd45e2f52},
    {"sz3", 1, 2, 0xd116ee5395450eb9, 0xdf28bbed01b84e5c},
    {"sz3", 1, 3, 0x5bd4486e8c3e2e63, 0xc8dbe01c29c8d8a4},
    {"sz3", 1, 4, 0x2163a56ea7915f5a, 0x9f49b58eb290e8da},
    {"mgard", 0, 0, 0xbfa6ba18e12c1fae, 0x6942781131b572f7},
    {"mgard", 0, 1, 0x1023b7e664b9bf13, 0x8135f0f762a41bc7},
    {"mgard", 0, 2, 0xeb112ad61689fc6c, 0x12aea2c4468d536b},
    {"mgard", 0, 3, 0xd47baa22565ffdfa, 0x59e88dbb29331363},
    {"mgard", 0, 4, 0xbb0dfb051cdf4d16, 0x00637b5b034b940f},
    {"mgard", 1, 0, 0x77144974ebbc943c, 0xcdeaec51f405c99c},
    {"mgard", 1, 1, 0x107ba1c9610b7d4d, 0x27e85797d86982f4},
    {"mgard", 1, 2, 0xce39a267706d16c9, 0x4843b0c9830cca68},
    {"mgard", 1, 3, 0xaa9b43907af2a9b2, 0x7d594edfaa414b30},
    {"mgard", 1, 4, 0xcedab82323773732, 0x879eccd19d9d96c4},
    {"zfp", 0, 0, 0xbbad6ddf716ead97, 0x0e8d0cec42c1357c},
    {"zfp", 0, 1, 0xc729cc44c6849e8e, 0xc96d6cbd28d0750d},
    {"zfp", 0, 2, 0xdb9a2df7f4d01820, 0x4d06f536dcbb90a4},
    {"zfp", 0, 3, 0xae71deb77e03fbae, 0x1ada974b5e05fad1},
    {"zfp", 0, 4, 0xdb95dcfb0bc7501a, 0x545342446633c026},
    {"zfp", 1, 0, 0x1db81f2eb185c5b2, 0x797a7716aae2d9df},
    {"zfp", 1, 1, 0x4ac3c5f7bf066277, 0x1ba1a3185d604e3e},
    {"zfp", 1, 2, 0xf69d1a1120262112, 0xa42359662f6b6019},
    {"zfp", 1, 3, 0x566c277c5cdc529f, 0x502bad0bac3d3ed6},
    {"zfp", 1, 4, 0xde3d9e70967f3362, 0x0c04c9db2220da94},
    {"fpzip", 0, 0, 0x18920c95cba8b246, 0x41d2578b592167d3},
    {"fpzip", 0, 1, 0x99ca3d1139738922, 0x5a8b62bf1e942ef4},
    {"fpzip", 0, 2, 0x3e7fd2474c316233, 0x253dd74638037adc},
    {"fpzip", 0, 3, 0x408c997d65f003ad, 0x4c379c0e123868a4},
    {"fpzip", 0, 4, 0x94288cf4129ab296, 0x89d88f5167a0a8cc},
    {"fpzip", 1, 0, 0x8dd374ed7b166b7d, 0x99463115844d0383},
    {"fpzip", 1, 1, 0x88f0d0cc479d5240, 0xa33833b4e0c56678},
    {"fpzip", 1, 2, 0x511d3d9d0bcaccb6, 0xa5839130c132b8ae},
    {"fpzip", 1, 3, 0xb17e37891c02cf1b, 0xcd08ad172b70ca54},
    {"fpzip", 1, 4, 0xa07619a14f9cda9d, 0xa98d1da901803f95},
};

std::vector<uint8_t> Archive(const Compressor& comp, const ArchiveCase& c) {
  const Tensor& data = Field(c.field);
  const double config = ConfigAt(comp.config_space(ValueRange(data)), c.config);
  StatusOr<std::vector<uint8_t>> out = comp.Compress(data, config);
  EXPECT_TRUE(out.ok()) << c.codec << ": " << out.status().ToString();
  return out.ok() ? std::move(out).value() : std::vector<uint8_t>();
}

// The hashes of a case's archive and of the floats it decodes to (0 for
// a failed step).
struct CaseHashes {
  uint64_t archive = 0;
  uint64_t decoded = 0;
};

CaseHashes Hashes(const ArchiveCase& c) {
  const std::unique_ptr<Compressor> comp = MakeCompressor(c.codec);
  const std::vector<uint8_t> archive = Archive(*comp, c);
  CaseHashes h;
  if (archive.empty()) return h;
  h.archive = Hash(archive);
  Tensor decoded;
  if (comp->Decompress(archive.data(), archive.size(), &decoded).ok()) {
    h.decoded = HashTensor(decoded);
  }
  return h;
}

std::string Describe(const ArchiveCase& c) {
  return std::string(c.codec) + " field " + std::to_string(c.field) +
         " config " + std::to_string(c.config);
}

TEST(ArchiveBytesGoldenTest, CodecArchivesMatchRecordedHashes) {
  for (const ArchiveCase& c : kArchives) {
    const std::unique_ptr<Compressor> comp = MakeCompressor(c.codec);
    const std::vector<uint8_t> archive = Archive(*comp, c);
    EXPECT_EQ(Hex(Hash(archive)), Hex(c.hash)) << Describe(c);
    Tensor decoded;
    const Status st = comp->Decompress(archive.data(), archive.size(),
                                       &decoded);
    ASSERT_TRUE(st.ok()) << Describe(c) << ": " << st.ToString();
    EXPECT_EQ(Hex(HashTensor(decoded)), Hex(c.decoded))
        << Describe(c) << " (decoded floats)";
  }
}

// The cases whose codecs run parallel stages, on the field that spans
// several work units, at both ends and the middle of the config space. The
// scheduling tests below replay only these, which keeps them light enough
// to share a sanitizer run with the timing-sensitive serving tests.
std::vector<const ArchiveCase*> ParallelCases() {
  std::vector<const ArchiveCase*> cases;
  for (const ArchiveCase& c : kArchives) {
    const std::string codec = c.codec;
    if (c.field == 1 && c.config % 2 == 0 &&
        (codec == "sz" || codec == "sz3" || codec == "mgard" ||
         codec == "zfp" || codec == "fpzip")) {
      cases.push_back(&c);
    }
  }
  return cases;
}

// Four threads compressing and decoding at once share one pool; each must
// still get the recorded archive and decoded bytes.
TEST(ArchiveBytesGoldenTest, ConcurrentCompressionsMatch) {
  constexpr size_t kThreads = 4;
  const std::vector<const ArchiveCase*> cases = ParallelCases();
  const size_t n = cases.size();
  std::vector<CaseHashes> got(n * kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the cases from a different starting point so
      // different codecs overlap in time.
      for (size_t i = 0; i < n; ++i) {
        const size_t k = (i + t * n / kThreads) % n;
        got[t * n + k] = Hashes(*cases[k]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(Hex(got[t * n + k].archive), Hex(cases[k]->hash))
          << "thread " << t << ": " << Describe(*cases[k]);
      EXPECT_EQ(Hex(got[t * n + k].decoded), Hex(cases[k]->decoded))
          << "thread " << t << ": " << Describe(*cases[k])
          << " (decoded floats)";
    }
  }
}

// Every shared-pool worker is parked on a gate while the calling thread
// compresses and decodes, so each parallel section runs on the caller
// alone.
TEST(ArchiveBytesGoldenTest, CallerOnlyCompressionsMatch) {
  WithWorkersParked([] {
    for (const ArchiveCase* c : ParallelCases()) {
      const CaseHashes got = Hashes(*c);
      EXPECT_EQ(Hex(got.archive), Hex(c->hash)) << Describe(*c);
      EXPECT_EQ(Hex(got.decoded), Hex(c->decoded))
          << Describe(*c) << " (decoded floats)";
    }
  });
}

// zfp's fixed-rate mode runs the same block loop as its fixed-accuracy mode
// but pads every block to the same bit budget. These hashes were recorded
// from the serial block loop, before it was split into parallel ranges:
// field, bits per value, FNV-1a of the archive, FNV-1a of the decode.
struct FixedRateCase {
  int field;
  double rate;
  uint64_t hash;
  uint64_t decoded;
};

constexpr FixedRateCase kFixedRate[] = {
    {0, 1.0, 0xec63efaf2de7d570, 0xdb0471b57b055200},
    {0, 4.0, 0x43f222059ad763a0, 0xc2455b67c614a582},
    {0, 12.0, 0x3614c7d3fd927fd0, 0x63e591121b32bfff},
    {1, 1.0, 0x20780165e42aea08, 0x421927160d6fb032},
    {1, 4.0, 0x8d5dc900d9a1abf5, 0x5eb40152a08c0c07},
    {1, 12.0, 0xca4b414231dee2d0, 0x4141bf37113b71c9},
};

TEST(ArchiveBytesGoldenTest, ZfpFixedRateArchivesMatchRecordedHashes) {
  const ZfpCompressor zfp;
  for (const FixedRateCase& c : kFixedRate) {
    SCOPED_TRACE("field " + std::to_string(c.field) + " rate " +
                 std::to_string(c.rate));
    const StatusOr<std::vector<uint8_t>> archive =
        zfp.CompressFixedRate(Field(c.field), c.rate);
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    EXPECT_EQ(Hex(Hash(archive.value())), Hex(c.hash));
    Tensor decoded;
    const Status st = zfp.Decompress(archive.value().data(),
                                     archive.value().size(), &decoded);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(Hex(HashTensor(decoded)), Hex(c.decoded));
  }
}

// zfp-chunked runs each slab's zfp compression inside a pool worker, so the
// slabs' block ranges nest inside the chunk loop. The 64^3 field in 8-row
// slabs must still give the archive recorded from the serial codec, and the
// same bytes as a run with the workers parked, which compresses its slabs
// one at a time on the calling thread.
TEST(ArchiveBytesGoldenTest, ChunkedZfpMatchesSerialReference) {
  constexpr uint64_t kChunkedZfpHash = 0xdce9f2be5bcbc367;
  const Tensor& data = Field(1);
  constexpr size_t kSlabElems = 8 * 64 * 64;
  const ChunkedCompressor chunked(MakeCompressor("zfp"), kSlabElems);
  const double config = ConfigAt(chunked.config_space(ValueRange(data)), 2);
  const StatusOr<std::vector<uint8_t>> a = chunked.Compress(data, config);
  StatusOr<std::vector<uint8_t>> b = Status::Internal("not run");
  WithWorkersParked([&] { b = chunked.Compress(data, config); });
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(ChunkCount(a.value(), data.rank()), 8u);
  EXPECT_EQ(Hex(Hash(a.value())), Hex(kChunkedZfpHash));
  EXPECT_EQ(a.value(), b.value());
}

// ------------------------------------------------------------ entropy stages

std::vector<uint8_t> ZliteInput(const std::string& kind, size_t n) {
  Rng rng(n * 31 + kind.size());
  std::vector<uint8_t> v(n, 0);
  if (kind == "random") {
    for (auto& b : v) b = static_cast<uint8_t>(rng.NextBelow(256));
  } else if (kind == "sparse") {
    for (auto& b : v) {
      if (rng.NextBelow(64) == 0) b = static_cast<uint8_t>(rng.NextBelow(256));
    }
  } else if (kind == "periodic") {
    // A 997-byte motif with occasional mutations: long, mostly in-window
    // matches.
    std::vector<uint8_t> motif(997);
    for (auto& b : motif) b = static_cast<uint8_t>(rng.NextBelow(256));
    for (size_t i = 0; i < n; ++i) {
      v[i] = motif[i % motif.size()];
      if (rng.NextBelow(4096) == 0) v[i] ^= 0x5A;
    }
  } else if (kind == "zero_runs") {
    size_t i = 0;
    while (i < n) {
      const size_t run = 1 + rng.NextBelow(3000);
      i += run;  // zeros
      const size_t lit = 1 + rng.NextBelow(40);
      for (size_t k = 0; k < lit && i < n; ++k, ++i) {
        v[i] = static_cast<uint8_t>(rng.NextBelow(256));
      }
    }
  } else if (kind.rfind("window", 0) == 0) {
    // Random blocks repeated at a fixed distance straddling the 64 KiB
    // window: "window-1" repeats at 65535 bytes (last reachable offset),
    // "window" at 65536 and "window+1" at 65537 (both out of reach).
    const size_t period = kind == "window-1" ? 65535
                          : kind == "window" ? 65536
                                             : 65537;
    for (size_t i = 0; i < n; ++i) {
      v[i] = i < period ? static_cast<uint8_t>(rng.NextBelow(256))
                        : v[i - period];
      if (rng.NextBelow(2048) == 0) v[i] ^= 0x33;
    }
  }
  return v;
}

struct StreamCase {
  const char* kind;
  size_t size;
  uint64_t hash;
};

constexpr StreamCase kZlite[] = {
    {"random", 1, 0xc61ec252bc8eea11},
    {"random", 4, 0xee78da6f7158e382},
    {"random", 5, 0x8477a72e2b9cb264},
    {"random", 65535, 0x25c7d0df984000f7},
    {"random", 65536, 0x563f384c8365f02c},
    {"random", 65537, 0x0ccd340357dd3212},
    {"random", 131072, 0xc26fd205566caeee},
    {"random", 131073, 0xac6081b1973c87e4},
    {"random", 262143, 0xf8b959434e4f79f9},
    {"random", 1048699, 0xfffcbd3a7200463a},
    {"sparse", 1, 0xc5e86152bc60b5d2},
    {"sparse", 4, 0x520e234b933a60b3},
    {"sparse", 5, 0x286a1e068238383e},
    {"sparse", 65535, 0x2b995d1274f8b34f},
    {"sparse", 65536, 0xa3cde61edd25232a},
    {"sparse", 65537, 0x7435f52b8874a6c0},
    {"sparse", 131072, 0x03c2a2b3f2fed879},
    {"sparse", 131073, 0x861c5631680f6a2b},
    {"sparse", 262143, 0x03fa654520e3442d},
    {"sparse", 1048699, 0x0f0a07b4fdfbdd44},
    {"periodic", 1, 0xc5ab3552bc2cbccc},
    {"periodic", 4, 0xd55bf746c6a3c79c},
    {"periodic", 5, 0xd05ad4b43d269d95},
    {"periodic", 65535, 0xf8a193e898122191},
    {"periodic", 65536, 0x3f90930bb3ee3af1},
    {"periodic", 65537, 0x0aece0c3b5736359},
    {"periodic", 131072, 0xd35ba23a10b0d276},
    {"periodic", 131073, 0xe2cc6212f53a119e},
    {"periodic", 262143, 0x5c12c0ca0377db7e},
    {"periodic", 1048699, 0xfbfe233b9421121a},
    {"zero_runs", 1, 0xc5e86152bc60b5d2},
    {"zero_runs", 4, 0x520e234b933a60b3},
    {"zero_runs", 5, 0x286a1e068238383e},
    {"zero_runs", 65535, 0x9b8f76e8519f0070},
    {"zero_runs", 65536, 0x79915b52abdebff1},
    {"zero_runs", 65537, 0xea87b4bed9ed8f8a},
    {"zero_runs", 131072, 0xb6cb4cc217c76a84},
    {"zero_runs", 131073, 0x0e6a565e369516d2},
    {"zero_runs", 262143, 0xc0df1c4201bf91e6},
    {"zero_runs", 1048699, 0xd2e506d62f6aa402},
    {"window-1", 200000, 0x069a8dcafba15ea5},
    {"window-1", 300001, 0xbcf1a02ff36a9a72},
    {"window", 200000, 0xd9440c070a478d9b},
    {"window", 300001, 0x2e12cdea4e581c45},
    {"window+1", 200000, 0xb38750808505f424},
    {"window+1", 300001, 0x03cd93e73c0de7a1},
};

TEST(ArchiveBytesGoldenTest, ZliteStreamsMatchRecordedHashes) {
  for (const StreamCase& c : kZlite) {
    const std::vector<uint8_t> in = ZliteInput(c.kind, c.size);
    EXPECT_EQ(Hex(Hash(ZliteCompress(in))), Hex(c.hash))
        << c.kind << " " << c.size;
  }
}

std::vector<uint32_t> HuffmanInput(const std::string& kind, size_t n) {
  Rng rng(n * 17 + kind.size());
  std::vector<uint32_t> v(n, 32768);
  if (kind == "random") {
    for (auto& s : v) s = static_cast<uint32_t>(rng.NextBelow(65537));
  } else if (kind == "sparse") {
    // Wide alphabet, like sz's zigzagged regression coefficients.
    for (auto& s : v) {
      s = rng.NextBelow(8) == 0 ? static_cast<uint32_t>(rng.NextUint64())
                                : static_cast<uint32_t>(rng.NextBelow(16));
    }
  } else if (kind == "periodic") {
    for (size_t i = 0; i < n; ++i) {
      v[i] = 32768 + static_cast<uint32_t>((i * 7) % 23) - 11;
    }
  } else if (kind == "laplace") {
    // Quantization codes around the zero bin, with the reserved 0 symbol.
    for (auto& s : v) {
      const double g = rng.NextGaussian();
      s = static_cast<uint32_t>(32768 + std::lround(g * g * g * 3.0));
      if (rng.NextBelow(500) == 0) s = 0;
    }
  } else if (kind == "zero_runs") {
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBelow(3000) == 0) v[i] = static_cast<uint32_t>(
                                        rng.NextBelow(65536));
    }
  }
  return v;
}

constexpr StreamCase kHuffman[] = {
    {"random", 1, 0xd38348c9a2d49062},
    {"random", 2, 0xa352fd0ac9483502},
    {"random", 65535, 0x3799c4e4e8ec5938},
    {"random", 65536, 0x7ee6cdd2ed7bec66},
    {"random", 65537, 0x3a51d940b090a891},
    {"random", 131075, 0x352bb225958db5c3},
    {"random", 300000, 0x10d8f57dfbeb9914},
    {"random", 1048576, 0x4fd1cd2397602abe},
    {"sparse", 1, 0x7e83cb9e0815606d},
    {"sparse", 2, 0x0d73c78a4ff748c2},
    {"sparse", 65535, 0xfef35eb0eb297585},
    {"sparse", 65536, 0x0008d13d97473875},
    {"sparse", 65537, 0x0de587e3b2ff657e},
    {"sparse", 131075, 0x0b2259fdc957b0f6},
    {"sparse", 300000, 0x2b0eabf6ee977899},
    {"sparse", 1048576, 0x64edff21b13bf291},
    {"periodic", 1, 0xc581e4517adacdeb},
    {"periodic", 2, 0x4467913837e46a84},
    {"periodic", 65535, 0xd1e6663d66f6fcc6},
    {"periodic", 65536, 0xb2ea862918c6ad4d},
    {"periodic", 65537, 0x10b55a61d34a7597},
    {"periodic", 131075, 0x3811b6ec8fb07e9e},
    {"periodic", 300000, 0xaa2c1ba0463ca793},
    {"periodic", 1048576, 0x4067261f0d4faf45},
    {"laplace", 1, 0x744e07248be3b35f},
    {"laplace", 2, 0x71b78ce231cb60f7},
    {"laplace", 65535, 0x2452e1d4cbac5cf0},
    {"laplace", 65536, 0xf12624a821a3b563},
    {"laplace", 65537, 0x4356b459adf19a17},
    {"laplace", 131075, 0xb09c8c0dfe0587b8},
    {"laplace", 300000, 0x8e8fd5603c5d3fc4},
    {"laplace", 1048576, 0x38b5b7248189c87f},
    {"zero_runs", 1, 0x744e07248be3b35f},
    {"zero_runs", 2, 0xcc840b8802a3b14c},
    {"zero_runs", 65535, 0x1e234847b5fc061b},
    {"zero_runs", 65536, 0xbd5ecee805e9d927},
    {"zero_runs", 65537, 0x342347d79bbd5791},
    {"zero_runs", 131075, 0x9f96371255f10119},
    {"zero_runs", 300000, 0x8cfb7f1f1d1d480f},
    {"zero_runs", 1048576, 0x19a98f6a4e91e560},
};

TEST(ArchiveBytesGoldenTest, HuffmanStreamsMatchRecordedHashes) {
  for (const StreamCase& c : kHuffman) {
    const std::vector<uint32_t> in = HuffmanInput(c.kind, c.size);
    EXPECT_EQ(Hex(Hash(HuffmanEncode(in))), Hex(c.hash))
        << c.kind << " " << c.size;
  }
}

}  // namespace
}  // namespace fxrz
