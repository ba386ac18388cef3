#include "src/data/tensor_io.h"

#include <cstdio>
#include <cstring>

#include "src/encoding/bit_stream.h"
#include "src/util/byte_reader.h"
#include "src/util/check.h"

namespace fxrz {

namespace {

constexpr uint32_t kTensorMagic = 0x46545331;  // "FTS1"

Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out->resize(len > 0 ? static_cast<size_t>(len) : 0);
  const size_t got = std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  if (got != out->size()) return Status::Internal("short read: " + path);
  return Status::Ok();
}

Status WriteWholeFile(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) return Status::Internal("short write: " + path);
  return Status::Ok();
}

}  // namespace

void SerializeTensor(const Tensor& t, std::vector<uint8_t>* out) {
  FXRZ_CHECK(out != nullptr);
  FXRZ_CHECK(!t.empty());
  AppendUint32(out, kTensorMagic);
  AppendUint32(out, static_cast<uint32_t>(t.rank()));
  for (size_t i = 0; i < t.rank(); ++i) AppendUint64(out, t.dim(i));
  const size_t payload = t.size() * sizeof(float);
  const size_t offset = out->size();
  out->resize(offset + payload);
  std::memcpy(out->data() + offset, t.data(), payload);
}

Status DeserializeTensor(const uint8_t* data, size_t size, size_t* pos,
                         Tensor* out) {
  FXRZ_CHECK(pos != nullptr && out != nullptr);
  if (*pos > size) return Status::Corruption("tensor: bad offset");
  ByteReader reader(data + *pos, size - *pos);
  uint32_t magic = 0, rank = 0;
  if (!reader.ReadU32(&magic) || !reader.ReadU32(&rank)) {
    return Status::Corruption("tensor: short header");
  }
  if (magic != kTensorMagic) return Status::Corruption("tensor: bad magic");
  if (rank == 0 || rank > Tensor::kMaxRank) {
    return Status::Corruption("tensor: bad rank");
  }
  std::vector<size_t> dims(rank);
  size_t total = 1;
  for (uint32_t i = 0; i < rank; ++i) {
    uint64_t dim = 0;
    if (!reader.ReadU64(&dim)) return Status::Corruption("tensor: short dims");
    // The product must stay far below overflow: every element also needs
    // four payload bytes, so anything beyond the remaining byte count is
    // corrupt regardless of the allocation it would demand.
    if (dim == 0 || dim > (1ull << 40) ||
        total > reader.remaining() / sizeof(float) / dim + 1) {
      return Status::Corruption("tensor: bad dim");
    }
    dims[i] = static_cast<size_t>(dim);
    total *= dims[i];
  }
  const uint8_t* payload = nullptr;
  if (!reader.ReadSpan(total * sizeof(float), &payload)) {
    return Status::Corruption("tensor: short payload");
  }
  Tensor t = Tensor::ForOverwrite(std::move(dims));
  std::memcpy(t.data(), payload, total * sizeof(float));
  *out = std::move(t);
  *pos += reader.position();
  return Status::Ok();
}

Status WriteTensorFile(const Tensor& t, const std::string& path) {
  std::vector<uint8_t> bytes;
  SerializeTensor(t, &bytes);
  return WriteWholeFile(path, bytes);
}

Status ReadTensorFile(const std::string& path, Tensor* out) {
  FXRZ_CHECK(out != nullptr);
  std::vector<uint8_t> bytes;
  FXRZ_RETURN_IF_ERROR(ReadWholeFile(path, &bytes));
  size_t pos = 0;
  return DeserializeTensor(bytes.data(), bytes.size(), &pos, out);
}

Status ReadRawF32File(const std::string& path,
                      const std::vector<size_t>& dims, Tensor* out) {
  FXRZ_CHECK(out != nullptr);
  FXRZ_CHECK(!dims.empty());
  std::vector<uint8_t> bytes;
  FXRZ_RETURN_IF_ERROR(ReadWholeFile(path, &bytes));
  size_t total = 1;
  for (size_t d : dims) total *= d;
  if (bytes.size() != total * sizeof(float)) {
    return Status::InvalidArgument("raw file size does not match shape");
  }
  Tensor t = Tensor::ForOverwrite(dims);
  std::memcpy(t.data(), bytes.data(), bytes.size());
  *out = std::move(t);
  return Status::Ok();
}

}  // namespace fxrz
