// The archive layout sz, sz3 and mgard share, written and parsed in one
// place:
//
//   codec header (magic | rank | dims)
//   parameter block | section | section | ...
//
// Each section is `u64 length | bytes`. A code section's bytes are the
// run-coded Huffman stream of its codes (HuffmanEncodeRuns: each run of
// the section's most frequent code is written as RUNA/RUNB digits, and the
// stream records that code); a byte section's are the codec's own. The
// parameter block has no length of its own: the codec writes and reads its
// fixed fields, and the first section starts where they end. No lossless
// pass runs over the body.
//
// The writer takes sections in archive order; the reader hands them back
// in the same order, each checked against the bytes left in the archive.

#ifndef FXRZ_COMPRESSORS_CODE_STREAM_H_
#define FXRZ_COMPRESSORS_CODE_STREAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/data/tensor.h"
#include "src/util/byte_reader.h"
#include "src/util/overwrite.h"
#include "src/util/status.h"

namespace fxrz {

class CodeStreamWriter {
 public:
  // The parameter block; append the codec's fixed fields here first.
  std::vector<uint8_t>* params() { return &params_; }

  void AddBytes(std::vector<uint8_t> bytes);

  // Huffman-codes `codes` now, so the caller may free them on return.
  void AddCodes(std::span<const uint32_t> codes);

  // Writes the header of `data` under `magic`, the parameter block and the
  // sections into the archive, freeing each section as it is copied in.
  std::vector<uint8_t> Finish(uint32_t magic, const Tensor& data) &&;

 private:
  std::vector<uint8_t> params_;
  std::vector<std::vector<uint8_t>> sections_;
};

class CodeStreamReader {
 public:
  // Checks the header against `magic`. `codec` names the codec in every
  // Corruption status, a bad header's included: "<codec>: bad magic".
  // params() and the sections are views into the archive, which must
  // outlive them.
  Status Parse(const uint8_t* data, size_t size, uint32_t magic,
               const char* codec);

  const std::vector<size_t>& dims() const { return dims_; }
  size_t elements() const { return elements_; }  // the product of dims()

  // The archive, positioned at the parameter block until the codec reads
  // it.
  ByteReader* params() { return &reader_; }

  // The next section: a view into the archive, or its decoded codes. A
  // section longer than the archive left fails with
  // Corruption("<codec>: truncated <what>"), and a code section of fewer
  // than `min_codes` or more than `max_codes` codes with a Corruption
  // status before its codes are allocated. The codes are allocated without
  // zeroing and written first by their decoder; *codes is empty on any
  // error.
  Status Bytes(const char* what, const uint8_t** data, size_t* size);
  Status Codes(const char* what, uint64_t min_codes, uint64_t max_codes,
               OverwriteVector<uint32_t>* codes);

 private:
  std::string codec_;
  std::vector<size_t> dims_;
  size_t elements_ = 0;
  ByteReader reader_{nullptr, 0};
};

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_CODE_STREAM_H_
