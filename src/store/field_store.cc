#include "src/store/field_store.h"

#include "src/encoding/bit_stream.h"
#include "src/store/container.h"
#include "src/util/byte_reader.h"
#include "src/util/check.h"
#include "src/util/file_io.h"

namespace fxrz {

namespace {

constexpr uint32_t kStoreMagic = 0x46585354;  // "FXST"
constexpr uint32_t kStoreVersion = 1;

void AppendString(std::vector<uint8_t>* out, const std::string& s) {
  AppendUint32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

Status ReadString(ByteReader* reader, std::string* out) {
  uint32_t len = 0;
  if (!reader->ReadU32(&len) || len > 4096) {
    return Status::Corruption("store: bad string length");
  }
  const uint8_t* bytes = nullptr;
  if (!reader->ReadSpan(len, &bytes)) {
    return Status::Corruption("store: short string");
  }
  out->assign(reinterpret_cast<const char*>(bytes), len);
  return Status::Ok();
}

}  // namespace

FieldStoreWriter::FieldStoreWriter(std::string compressor_name)
    : compressor_name_(std::move(compressor_name)),
      compressor_(MakeCompressor(compressor_name_)) {}

Status FieldStoreWriter::AddFieldFixedRatio(const std::string& name,
                                            double target_ratio,
                                            GuardedResult served) {
  FXRZ_RETURN_IF_ERROR(CheckNewName(name));
  if (!(target_ratio > 0)) {
    return Status::InvalidArgument("target ratio must be positive");
  }
  if (served.compressed.empty()) {
    return Status::InvalidArgument("no served archive for field: " + name);
  }
  Append(name, target_ratio, served.config, served.measured_ratio,
         std::move(served.compressed));
  return Status::Ok();
}

Status FieldStoreWriter::AddFieldFixedConfig(const std::string& name,
                                             const Tensor& data,
                                             double config) {
  FXRZ_RETURN_IF_ERROR(CheckNewName(name));
  FXRZ_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                        compressor_->Compress(data, config));
  const double achieved_ratio =
      static_cast<double>(data.size_bytes()) / payload.size();
  Append(name, /*target_ratio=*/0.0, config, achieved_ratio,
         std::move(payload));
  return Status::Ok();
}

Status FieldStoreWriter::CheckNewName(const std::string& name) const {
  if (name.empty()) return Status::InvalidArgument("empty field name");
  for (const FieldEntry& e : entries_) {
    if (e.name == name) {
      return Status::InvalidArgument("duplicate field: " + name);
    }
  }
  return Status::Ok();
}

void FieldStoreWriter::Append(const std::string& name, double target_ratio,
                              double config, double achieved_ratio,
                              std::vector<uint8_t> payload) {
  FieldEntry entry;
  entry.name = name;
  entry.compressor = compressor_name_;
  entry.target_ratio = target_ratio;
  entry.config = config;
  entry.achieved_ratio = achieved_ratio;
  entry.compressed_bytes = payload.size();
  entries_.push_back(std::move(entry));
  payloads_.push_back(std::move(payload));
}

uint64_t FieldStoreWriter::payload_bytes() const {
  uint64_t total = 0;
  for (const auto& p : payloads_) total += p.size();
  return total;
}

std::vector<uint8_t> FieldStoreWriter::Serialize() const {
  std::vector<uint8_t> out;
  AppendUint32(&out, kStoreMagic);
  AppendUint32(&out, kStoreVersion);
  AppendUint32(&out, static_cast<uint32_t>(entries_.size()));
  for (size_t i = 0; i < entries_.size(); ++i) {
    const FieldEntry& e = entries_[i];
    AppendString(&out, e.name);
    AppendString(&out, e.compressor);
    AppendDouble(&out, e.target_ratio);
    AppendDouble(&out, e.config);
    AppendDouble(&out, e.achieved_ratio);
    AppendUint64(&out, payloads_[i].size());
    out.insert(out.end(), payloads_[i].begin(), payloads_[i].end());
  }
  return out;
}

Status FieldStoreWriter::WriteToFile(const std::string& path) const {
  // Checksummed container + atomic temp/fsync/rename persistence: a crash
  // mid-write can never leave a half-written store that parses, and
  // fsync/close failures (full disk) surface as a Status instead of a
  // silently truncated file.
  return WriteContainerFile(path, kSectionFieldStore, Serialize());
}

Status FieldStoreReader::FromBytes(std::vector<uint8_t> bytes) {
  bytes_ = std::move(bytes);
  entries_.clear();
  payload_spans_.clear();

  ByteReader reader(bytes_);
  uint32_t magic = 0, version = 0, count = 0;
  if (!reader.ReadU32(&magic)) return Status::Corruption("store: short header");
  if (magic != kStoreMagic) return Status::Corruption("store: bad magic");
  if (!reader.ReadU32(&version) || version != kStoreVersion) {
    return Status::Corruption("store: unsupported version");
  }
  // Each entry needs at least two string length prefixes plus the fixed
  // 32-byte trailer; bound the count before looping.
  if (!reader.ReadCountU32(&count, /*min_bytes_per_item=*/40)) {
    return Status::Corruption("store: bad entry count");
  }
  for (uint32_t i = 0; i < count; ++i) {
    FieldEntry e;
    FXRZ_RETURN_IF_ERROR(ReadString(&reader, &e.name));
    FXRZ_RETURN_IF_ERROR(ReadString(&reader, &e.compressor));
    const uint8_t* payload = nullptr;
    size_t payload_size = 0;
    if (!reader.ReadF64(&e.target_ratio) || !reader.ReadF64(&e.config) ||
        !reader.ReadF64(&e.achieved_ratio) ||
        !reader.ReadLengthPrefixed(&payload, &payload_size)) {
      return Status::Corruption("store: truncated entry");
    }
    e.compressed_bytes = payload_size;
    entries_.push_back(std::move(e));
    payload_spans_.emplace_back(
        static_cast<size_t>(payload - bytes_.data()), payload_size);
  }
  return Status::Ok();
}

Status FieldStoreReader::OpenFile(const std::string& path) {
  // Container files are checksum-verified before any parsing; version-0
  // (pre-container) store files come back raw and parse as before.
  std::vector<uint8_t> bytes;
  FXRZ_RETURN_IF_ERROR(ReadContainerFile(path, kSectionFieldStore, &bytes));
  return FromBytes(std::move(bytes));
}

Status FieldStoreReader::ReadField(const std::string& name,
                                   Tensor* out) const {
  FXRZ_CHECK(out != nullptr);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name != name) continue;
    // The compressor name came from the archive: don't let a corrupt entry
    // hit the aborting factory.
    const auto comp = MakeCompressorOrNull(entries_[i].compressor);
    if (comp == nullptr) {
      return Status::Corruption("store: unknown compressor '" +
                                entries_[i].compressor + "'");
    }
    const auto [offset, size] = payload_spans_[i];
    return comp->Decompress(bytes_.data() + offset, size, out);
  }
  return Status::NotFound("no field named " + name);
}

}  // namespace fxrz
