// Fuzz harness: chunked archive index parsing, chunk dispatch and the
// checksum-only audit. Uses the SZ-like codec as the base compressor (the
// index layer under test is identical for every base).

#include <cstdlib>

#include "fuzz/fuzz_target.h"
#include "src/compressors/chunked.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  fxrz::ChunkedCompressor chunked(fxrz::MakeCompressor("sz"),
                                  /*target_chunk_elems=*/1024);
  fxrz::Tensor out;
  const fxrz::Status decoded = chunked.Decompress(data, size, &out);
  if (decoded.ok() && out.empty()) std::abort();
  // Decompress checks every chunk's CRC before decoding it, so an archive
  // it accepts must pass the checksum-only audit as well.
  const fxrz::Status verified = chunked.VerifyIntegrity(data, size);
  if (decoded.ok() && !verified.ok()) std::abort();
  return 0;
}
