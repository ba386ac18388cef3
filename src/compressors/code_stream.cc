#include "src/compressors/code_stream.h"

#include "src/compressors/compressor.h"
#include "src/encoding/bit_stream.h"
#include "src/encoding/huffman.h"
#include "src/encoding/zlite.h"

namespace fxrz {

void CodeStreamWriter::AddBytes(std::vector<uint8_t> bytes) {
  sections_.push_back(std::move(bytes));
}

void CodeStreamWriter::AddCodes(std::span<const uint32_t> codes) {
  sections_.push_back(HuffmanEncode(codes));
}

std::vector<uint8_t> CodeStreamWriter::Finish(uint32_t magic,
                                              const Tensor& data) && {
  size_t body_size = params_.size();
  for (const std::vector<uint8_t>& section : sections_) {
    body_size += 8 + section.size();
  }
  std::vector<uint8_t> body;
  body.reserve(body_size);
  body.insert(body.end(), params_.begin(), params_.end());
  for (std::vector<uint8_t>& section : sections_) {
    AppendUint64(&body, section.size());
    body.insert(body.end(), section.begin(), section.end());
    std::vector<uint8_t>().swap(section);
  }

  // Dictionary pass over the entropy-coded body (Zstd stage in real SZ).
  const std::vector<uint8_t> packed = ZliteCompress(body);
  std::vector<uint8_t> out;
  compressor_internal::AppendHeader(&out, magic, data);
  out.insert(out.end(), packed.begin(), packed.end());
  return out;
}

Status CodeStreamReader::Parse(const uint8_t* data, size_t size,
                               uint32_t magic, const char* codec) {
  codec_ = codec;
  ByteReader archive(data, size);
  FXRZ_RETURN_IF_ERROR(
      compressor_internal::ParseHeader(&archive, magic, &dims_));
  FXRZ_RETURN_IF_ERROR(
      ZliteDecompress(archive.cursor(), archive.remaining(), &body_));
  reader_ = ByteReader(body_.data(), body_.size());
  return Status::Ok();
}

Status CodeStreamReader::Bytes(const char* what, const uint8_t** data,
                               size_t* size) {
  if (!reader_.ReadLengthPrefixed(data, size)) {
    return Status::Corruption(codec_ + ": truncated " + what);
  }
  return Status::Ok();
}

Status CodeStreamReader::Codes(const char* what,
                               OverwriteVector<uint32_t>* codes) {
  const uint8_t* bytes = nullptr;
  size_t size = 0;
  codes->clear();
  FXRZ_RETURN_IF_ERROR(Bytes(what, &bytes, &size));
  return HuffmanDecode(bytes, size, codes);
}

}  // namespace fxrz
