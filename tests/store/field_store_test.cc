#include "src/store/field_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/util/fault_injection.h"
#include "src/util/file_io.h"
#include "src/util/metrics.h"

namespace fxrz {
namespace {

class FieldStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint64_t s : {401, 402, 403, 404}) {
      fields_.push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
    }
    std::vector<const Tensor*> train;
    for (size_t i = 0; i < 3; ++i) train.push_back(&fields_[i]);
    fxrz_ = std::make_unique<Fxrz>(MakeCompressor("sz"));
    fxrz_->Train(train);
  }

  // The archive the paper's policy serves for `target` on `data`.
  GuardedResult Serve(const Tensor& data, double target) const {
    return fxrz_->GuardedCompressToRatio(data, target, PaperPolicy(0))
        .value();
  }

  std::vector<Tensor> fields_;
  std::unique_ptr<Fxrz> fxrz_;
};

TEST_F(FieldStoreTest, FixedConfigRoundTrip) {
  FieldStoreWriter writer("sz");
  const auto sz = MakeCompressor("sz");
  const double eb = sz->config_space(ValueRange(fields_[3])).min * 100;
  ASSERT_TRUE(writer.AddFieldFixedConfig("density", fields_[3], eb).ok());

  FieldStoreReader reader;
  ASSERT_TRUE(reader.FromBytes(writer.Serialize()).ok());
  ASSERT_EQ(reader.entries().size(), 1u);
  EXPECT_EQ(reader.entries()[0].name, "density");
  EXPECT_EQ(reader.entries()[0].compressor, "sz");

  Tensor restored;
  ASSERT_TRUE(reader.ReadField("density", &restored).ok());
  EXPECT_EQ(restored.dims(), fields_[3].dims());
  EXPECT_LE(ComputeDistortion(fields_[3], restored).max_abs_error, eb * 1.001);
}

TEST_F(FieldStoreTest, FixedRatioUsesModel) {
  const GuardedResult served = Serve(fields_[3], 20.0);
  const metrics::MetricsSnapshot before = metrics::MetricsSnapshot::Capture();
  FieldStoreWriter writer("sz");
  ASSERT_TRUE(writer.AddFieldFixedRatio("f0", 20.0, served).ok());
  // The store keeps the served archive: no codec run across the add.
  EXPECT_EQ(metrics::MetricsSnapshot::Delta(
                before, metrics::MetricsSnapshot::Capture())
                .CounterValue("fxrz_codec_compress_total{codec=\"sz\"}"),
            0u);
  const FieldEntry& e = writer.entries()[0];
  EXPECT_EQ(e.target_ratio, 20.0);
  EXPECT_EQ(e.config, served.config);
  EXPECT_EQ(e.achieved_ratio, served.measured_ratio);
  // Achieved ratio lands in the target's neighborhood.
  EXPECT_GT(e.achieved_ratio, 20.0 * 0.4);
  EXPECT_LT(e.achieved_ratio, 20.0 * 2.5);
  ASSERT_EQ(e.compressed_bytes, served.compressed.size());
  // A one-field store ends with its payload: the served bytes, verbatim.
  const std::vector<uint8_t> bytes = writer.Serialize();
  ASSERT_GE(bytes.size(), served.compressed.size());
  EXPECT_TRUE(std::equal(served.compressed.begin(), served.compressed.end(),
                         bytes.end() - served.compressed.size()));
}

TEST_F(FieldStoreTest, FixedRatioWithoutModelFails) {
  // An untrained pipeline serves no archive under the paper's policy, and
  // the store refuses a result that carries none.
  const Fxrz untrained(MakeCompressor("sz"));
  EXPECT_FALSE(
      untrained.GuardedCompressToRatio(fields_[0], 10.0, PaperPolicy(0)).ok());
  FieldStoreWriter writer("sz");
  EXPECT_EQ(writer.AddFieldFixedRatio("x", 10.0, GuardedResult()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(writer.entries().empty());
}

TEST_F(FieldStoreTest, FixedRatioConfigStaysInTheFieldsConfigSpace) {
  // A field 1000x smaller than the training data: the model's estimate
  // lies far above the field's error-bound range, and the ladder clamps it
  // into config_space before compressing.
  Tensor scaled = fields_[3];
  for (size_t i = 0; i < scaled.size(); ++i) scaled[i] *= 1e-3f;
  const ConfigSpace space =
      fxrz_->compressor().config_space(ValueRange(scaled));
  ASSERT_GT(fxrz_->model().EstimateWithConfidence(scaled, 20.0).config,
            space.max);
  FieldStoreWriter writer("sz");
  ASSERT_TRUE(writer.AddFieldFixedRatio("s", 20.0, Serve(scaled, 20.0)).ok());
  EXPECT_LE(writer.entries()[0].config, space.max);

  FieldStoreReader reader;
  ASSERT_TRUE(reader.FromBytes(writer.Serialize()).ok());
  Tensor restored;
  ASSERT_TRUE(reader.ReadField("s", &restored).ok());
  EXPECT_LE(ComputeDistortion(scaled, restored).max_abs_error,
            space.max * 1.001);
}

TEST_F(FieldStoreTest, DuplicateNamesRejected) {
  FieldStoreWriter writer("sz");
  ASSERT_TRUE(
      writer.AddFieldFixedRatio("a", 10.0, Serve(fields_[0], 10.0)).ok());
  EXPECT_FALSE(
      writer.AddFieldFixedRatio("a", 10.0, Serve(fields_[1], 10.0)).ok());
}

TEST_F(FieldStoreTest, EmptyTensorIsInvalidArgument) {
  // A caller's empty tensor is a bad argument, not a reason to abort.
  FieldStoreWriter writer("sz");
  const Tensor empty;
  const Status fixed = writer.AddFieldFixedConfig("e", empty, 0.01);
  EXPECT_EQ(fixed.code(), StatusCode::kInvalidArgument) << fixed.ToString();
  const Status ratio =
      fxrz_->GuardedCompressToRatio(empty, 10.0, PaperPolicy(0)).status();
  EXPECT_EQ(ratio.code(), StatusCode::kInvalidArgument) << ratio.ToString();
  EXPECT_TRUE(writer.entries().empty());
}

TEST_F(FieldStoreTest, FailedCompressionPropagatesItsStatus) {
  if (!fault::Enabled()) GTEST_SKIP() << "built without FXRZ_FAULT_INJECT";
  fault::ResetAll();
  fault::Arm(fault::Site::kCompressorCompress, /*skip=*/0, /*count=*/1);
  FieldStoreWriter writer("sz");
  const Status st = writer.AddFieldFixedConfig("f", fields_[3], 0.01);
  fault::ResetAll();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_TRUE(writer.entries().empty());
  // The failed add left nothing behind: the same name still goes in.
  EXPECT_TRUE(writer.AddFieldFixedConfig("f", fields_[3], 0.01).ok());
}

TEST_F(FieldStoreTest, MultipleFieldsIndependentlyReadable) {
  FieldStoreWriter writer("zfp");
  const auto zfp = MakeCompressor("zfp");
  for (size_t i = 0; i < fields_.size(); ++i) {
    const double eb = zfp->config_space(ValueRange(fields_[i])).min * 50;
    ASSERT_TRUE(writer
                    .AddFieldFixedConfig("field" + std::to_string(i),
                                         fields_[i], eb)
                    .ok());
  }
  FieldStoreReader reader;
  ASSERT_TRUE(reader.FromBytes(writer.Serialize()).ok());
  ASSERT_EQ(reader.entries().size(), 4u);
  // Read out of order.
  for (size_t i = fields_.size(); i-- > 0;) {
    Tensor t;
    ASSERT_TRUE(reader.ReadField("field" + std::to_string(i), &t).ok());
    EXPECT_EQ(t.dims(), fields_[i].dims());
  }
}

TEST_F(FieldStoreTest, MissingFieldIsNotFound) {
  FieldStoreWriter writer("sz");
  ASSERT_TRUE(
      writer.AddFieldFixedRatio("a", 10.0, Serve(fields_[0], 10.0)).ok());
  FieldStoreReader reader;
  ASSERT_TRUE(reader.FromBytes(writer.Serialize()).ok());
  Tensor t;
  EXPECT_EQ(reader.ReadField("zzz", &t).code(), StatusCode::kNotFound);
}

TEST_F(FieldStoreTest, CorruptArchiveRejected) {
  FieldStoreWriter writer("sz");
  ASSERT_TRUE(
      writer.AddFieldFixedRatio("a", 10.0, Serve(fields_[0], 10.0)).ok());
  std::vector<uint8_t> bytes = writer.Serialize();

  FieldStoreReader reader;
  std::vector<uint8_t> bad = bytes;
  bad[0] ^= 0xFF;  // magic
  EXPECT_FALSE(reader.FromBytes(bad).ok());

  bad = bytes;
  bad.resize(bad.size() / 2);  // truncated payload
  EXPECT_FALSE(reader.FromBytes(bad).ok());
}

TEST_F(FieldStoreTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/store_test.fxst";
  FieldStoreWriter writer("sz");
  ASSERT_TRUE(
      writer.AddFieldFixedRatio("a", 15.0, Serve(fields_[0], 15.0)).ok());
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  FieldStoreReader reader;
  ASSERT_TRUE(reader.OpenFile(path).ok());
  Tensor t;
  ASSERT_TRUE(reader.ReadField("a", &t).ok());
  EXPECT_EQ(t.dims(), fields_[0].dims());
  std::remove(path.c_str());
}

TEST_F(FieldStoreTest, WriteToFileToUnwritableDirectoryReportsStatus) {
  FieldStoreWriter writer("sz");
  ASSERT_TRUE(
      writer.AddFieldFixedRatio("a", 15.0, Serve(fields_[0], 15.0)).ok());
  const Status st = writer.WriteToFile("/no-such-dir/sub/store.fxst");
  ASSERT_FALSE(st.ok());
  EXPECT_FALSE(st.message().empty());
}

TEST_F(FieldStoreTest, FlippedFileByteAtEveryStrideIsDetected) {
  // Store files are container-wrapped: any single corrupt byte on disk
  // must fail OpenFile, never silently decode. Sweep a flip across the
  // whole file at a 64-byte stride (plus the final byte).
  const std::string path = ::testing::TempDir() + "/store_sweep.fxst";
  const std::string bad_path = ::testing::TempDir() + "/store_sweep_bad.fxst";
  FieldStoreWriter writer("sz");
  ASSERT_TRUE(
      writer.AddFieldFixedRatio("a", 15.0, Serve(fields_[0], 15.0)).ok());
  ASSERT_TRUE(
      writer.AddFieldFixedRatio("b", 25.0, Serve(fields_[1], 25.0)).ok());
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  std::vector<size_t> positions;
  for (size_t pos = 0; pos < bytes.size(); pos += 64) positions.push_back(pos);
  positions.push_back(bytes.size() - 1);
  for (size_t pos : positions) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[pos] ^= 0x01;
    ASSERT_TRUE(AtomicWriteFile(bad_path, corrupt).ok());
    FieldStoreReader reader;
    ASSERT_FALSE(reader.OpenFile(bad_path).ok())
        << "flipped byte " << pos << " of " << bytes.size()
        << " went undetected";
  }
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST_F(FieldStoreTest, VersionZeroRawFileStillOpens) {
  // Files written before the container layer are raw FieldStore bytes;
  // OpenFile must keep loading them (without integrity protection).
  const std::string path = ::testing::TempDir() + "/store_v0.fxst";
  FieldStoreWriter writer("sz");
  ASSERT_TRUE(
      writer.AddFieldFixedRatio("a", 15.0, Serve(fields_[0], 15.0)).ok());
  ASSERT_TRUE(AtomicWriteFile(path, writer.Serialize()).ok());

  FieldStoreReader reader;
  ASSERT_TRUE(reader.OpenFile(path).ok());
  Tensor t;
  ASSERT_TRUE(reader.ReadField("a", &t).ok());
  EXPECT_EQ(t.dims(), fields_[0].dims());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fxrz
