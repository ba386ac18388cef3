// Multi-field container with transparent fixed-ratio lossy compression.
//
// The paper motivates FXRZ with scientific data libraries (HDF5/ADIOS2
// filters such as HSZ and pNetCDF-SZ) that compress transparently on write.
// FieldStore is that integration at library scale: a self-describing
// archive of named fields where each field is compressed either at an
// explicit knob value or -- when a trained FxrzModel is attached -- at
// whatever knob FXRZ estimates for a requested target ratio.
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
#include "src/core/model.h"
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
  // `model` may be null; then only AddFieldFixedConfig is available.
  // The model, when provided, must have been trained for `compressor_name`.
  FieldStoreWriter(std::string compressor_name, const FxrzModel* model);

  // Compresses `data` at the FXRZ-estimated knob for `target_ratio`.
  // Requires a model. Duplicate names and empty tensors are rejected with
  // InvalidArgument; a failed compression returns the codec's Status.
  Status AddFieldFixedRatio(const std::string& name, const Tensor& data,
                            double target_ratio);

  // Compresses `data` at an explicit knob value (same rejections).
  Status AddFieldFixedConfig(const std::string& name, const Tensor& data,
                             double config);

  const std::vector<FieldEntry>& entries() const { return entries_; }

  // Total compressed payload bytes so far.
  uint64_t payload_bytes() const;

  // Serializes the archive.
  std::vector<uint8_t> Serialize() const;
  Status WriteToFile(const std::string& path) const;

 private:
  Status AddCompressed(const std::string& name, const Tensor& data,
                       double target_ratio, double config);

  std::string compressor_name_;
  std::unique_ptr<Compressor> compressor_;
  const FxrzModel* model_;  // not owned
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
