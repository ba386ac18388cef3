// The archive layout sz, sz3 and mgard share, written and parsed in one
// place:
//
//   codec header (magic | rank | dims)
//   zlite( parameter block | section | section | ... )
//
// Each section is `u64 length | bytes`. A code section's bytes are the
// Huffman coding of its codes; a byte section's are the codec's own. The
// parameter block has no length of its own: the codec writes and reads its
// fixed fields, and the first section starts where they end.
//
// The writer takes sections in archive order; the reader hands them back
// in the same order, each checked against the bytes left in the body.

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

  // Builds the body (freeing each section as it is copied in), runs zlite
  // over it and prepends the header of `data` under `magic`.
  std::vector<uint8_t> Finish(uint32_t magic, const Tensor& data) &&;

 private:
  std::vector<uint8_t> params_;
  std::vector<std::vector<uint8_t>> sections_;
};

class CodeStreamReader {
 public:
  CodeStreamReader() = default;
  // params() and the sections point into the body this object owns.
  CodeStreamReader(const CodeStreamReader&) = delete;
  CodeStreamReader& operator=(const CodeStreamReader&) = delete;

  // Checks the header against `magic` and unpacks the body. `codec` names
  // the codec in the Corruption status of a short section.
  Status Parse(const uint8_t* data, size_t size, uint32_t magic,
               const char* codec);

  const std::vector<size_t>& dims() const { return dims_; }

  // The body, positioned at the parameter block until the codec reads it.
  ByteReader* params() { return &reader_; }

  // The next section: a view into the body, or its decoded codes. A
  // section longer than the body left fails with
  // Corruption("<codec>: truncated <what>"). The body and the codes are
  // allocated without zeroing and written first by their decoders; *codes
  // is empty on any error.
  Status Bytes(const char* what, const uint8_t** data, size_t* size);
  Status Codes(const char* what, OverwriteVector<uint32_t>* codes);

 private:
  std::string codec_;
  std::vector<size_t> dims_;
  OverwriteVector<uint8_t> body_;
  ByteReader reader_{nullptr, 0};
};

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_CODE_STREAM_H_
