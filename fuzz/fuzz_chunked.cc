// Fuzz harness: chunked archive index parsing and chunk dispatch. Uses the
// SZ-like codec as the base compressor (the index layer under test is
// identical for every base).

#include <cstdlib>

#include "fuzz/fuzz_target.h"
#include "src/compressors/chunked.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  fxrz::ChunkedCompressor chunked(fxrz::MakeCompressor("sz"),
                                  /*target_chunk_elems=*/1024);
  fxrz::Tensor out;
  const fxrz::Status st = chunked.Decompress(data, size, &out);
  if (st.ok() && out.empty()) std::abort();
  // Exercise the single-chunk path and the index-only scan as well.
  (void)chunked.ChunkCount(data, size);
  fxrz::Tensor chunk0;
  (void)chunked.DecompressChunk(data, size, 0, &chunk0);
  return 0;
}
