#include "src/compressors/code_stream.h"

#include "src/compressors/compressor.h"
#include "src/encoding/bit_stream.h"
#include "src/encoding/huffman.h"

namespace fxrz {

void CodeStreamWriter::AddBytes(std::vector<uint8_t> bytes) {
  sections_.push_back(std::move(bytes));
}

void CodeStreamWriter::AddCodes(std::span<const uint32_t> codes) {
  sections_.push_back(HuffmanEncodeRuns(codes));
}

std::vector<uint8_t> CodeStreamWriter::Finish(uint32_t magic,
                                              const Tensor& data) && {
  std::vector<uint8_t> out;
  compressor_internal::AppendHeader(&out, magic, data);
  size_t size = out.size() + params_.size();
  for (const std::vector<uint8_t>& section : sections_) {
    size += 8 + section.size();
  }
  out.reserve(size);
  out.insert(out.end(), params_.begin(), params_.end());
  for (std::vector<uint8_t>& section : sections_) {
    AppendUint64(&out, section.size());
    out.insert(out.end(), section.begin(), section.end());
    std::vector<uint8_t>().swap(section);
  }
  return out;
}

Status CodeStreamReader::Parse(const uint8_t* data, size_t size,
                               uint32_t magic, const char* codec) {
  codec_ = codec;
  ByteReader archive(data, size);
  const Status header =
      compressor_internal::ParseHeader(&archive, magic, &dims_);
  if (!header.ok()) {
    return Status::Corruption(codec_ + ": " + header.message());
  }
  elements_ = 1;
  for (const size_t d : dims_) elements_ *= d;
  reader_ = ByteReader(archive.cursor(), archive.remaining());
  return Status::Ok();
}

Status CodeStreamReader::Bytes(const char* what, const uint8_t** data,
                               size_t* size) {
  if (!reader_.ReadLengthPrefixed(data, size)) {
    return Status::Corruption(codec_ + ": truncated " + what);
  }
  return Status::Ok();
}

Status CodeStreamReader::Codes(const char* what, uint64_t min_codes,
                               uint64_t max_codes,
                               OverwriteVector<uint32_t>* codes) {
  const uint8_t* bytes = nullptr;
  size_t size = 0;
  codes->clear();
  FXRZ_RETURN_IF_ERROR(Bytes(what, &bytes, &size));
  return HuffmanDecodeRuns(bytes, size, min_codes, max_codes, codes);
}

}  // namespace fxrz
