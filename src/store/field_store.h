// Multi-field container with transparent fixed-ratio lossy compression.
//
// The paper motivates FXRZ with scientific data libraries (HDF5/ADIOS2
// filters such as HSZ and pNetCDF-SZ) that compress transparently on write.
// FieldStore is that integration at library scale: a self-describing
// archive of named fields where each field is either compressed at an
// explicit knob value, or stored as the archive the guard ladder
// (Fxrz::GuardedCompressToRatio) served for a requested target ratio.
//
// Format (little-endian):
//   magic "FXST" | version u32 | field count u32 | per field:
//   name | compressor name | target ratio f64 | config f64 |
//   achieved ratio f64 | payload size u64 | payload (compressor stream)
//
// On disk the serialized store is wrapped in the checksummed container of
// src/store/container.h (section "field-store") and persisted atomically
// (temp + fsync + rename), so corruption is detected at open and a crash
// mid-write never leaves a readable-but-wrong file. Pre-container
// (version-0) store files still open via the raw-bytes fallback.

#ifndef FXRZ_STORE_FIELD_STORE_H_
#define FXRZ_STORE_FIELD_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/guard.h"
#include "src/data/tensor.h"
#include "src/util/status.h"

namespace fxrz {

// Metadata of one stored field.
struct FieldEntry {
  std::string name;
  std::string compressor;
  double target_ratio = 0.0;  // 0 when stored at an explicit config
  double config = 0.0;
  double achieved_ratio = 0.0;
  uint64_t compressed_bytes = 0;
};

// Builds an archive in memory; write once, then serialize.
class FieldStoreWriter {
 public:
  explicit FieldStoreWriter(std::string compressor_name);

  // Stores the archive the guard ladder served for `target_ratio`, with its
  // config and measured ratio; nothing is compressed again. `served` must
  // come from a Fxrz built on this writer's compressor. Duplicate names,
  // non-positive targets and results without an archive are rejected with
  // InvalidArgument.
  Status AddFieldFixedRatio(const std::string& name, double target_ratio,
                            GuardedResult served);

  // Compresses `data` at an explicit knob value. Duplicate names and empty
  // tensors are rejected with InvalidArgument; a failed compression returns
  // the codec's Status.
  Status AddFieldFixedConfig(const std::string& name, const Tensor& data,
                             double config);

  const std::vector<FieldEntry>& entries() const { return entries_; }

  // Total compressed payload bytes so far.
  uint64_t payload_bytes() const;

  // Serializes the archive.
  std::vector<uint8_t> Serialize() const;
  Status WriteToFile(const std::string& path) const;

 private:
  // InvalidArgument for an empty or already-stored name.
  Status CheckNewName(const std::string& name) const;
  void Append(const std::string& name, double target_ratio, double config,
              double achieved_ratio, std::vector<uint8_t> payload);

  std::string compressor_name_;
  std::unique_ptr<Compressor> compressor_;
  std::vector<FieldEntry> entries_;
  std::vector<std::vector<uint8_t>> payloads_;
};

// Reads an archive and decompresses fields on demand.
class FieldStoreReader {
 public:
  FieldStoreReader() = default;

  Status FromBytes(std::vector<uint8_t> bytes);
  Status OpenFile(const std::string& path);

  const std::vector<FieldEntry>& entries() const { return entries_; }

  // Decompresses one field by name.
  Status ReadField(const std::string& name, Tensor* out) const;

 private:
  std::vector<uint8_t> bytes_;
  std::vector<FieldEntry> entries_;
  std::vector<std::pair<uint64_t, uint64_t>> payload_spans_;  // offset, size
};

}  // namespace fxrz

#endif  // FXRZ_STORE_FIELD_STORE_H_
