// Fault-injection tests for the escalation ladder: every injected failure
// must be absorbed by a lower-priority tier or surface as a Status --
// never an abort. These tests exercise the real serving path end to end
// and GTEST_SKIP unless the build compiled the fault points in
// (-DFXRZ_FAULT_INJECT=ON).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/chunked.h"
#include "src/compressors/compressor.h"
#include "src/core/guard.h"
#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/serve/server.h"
#include "src/util/fault_injection.h"
#include "src/util/mem_budget.h"
#include "tests/core/hooked_compressor.h"

namespace fxrz {
namespace {

using fault::Site;

class FaultLadderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fields_ = new std::vector<Tensor>();
    for (uint64_t s = 31; s <= 34; ++s) {
      fields_->push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
    }
    fxrz_ = new Fxrz(MakeCompressor("sz"));
    std::vector<const Tensor*> train;
    for (size_t i = 0; i < 3; ++i) train.push_back(&(*fields_)[i]);
    fxrz_->Train(train);
  }
  static void TearDownTestSuite() {
    delete fxrz_;
    fxrz_ = nullptr;
    delete fields_;
    fields_ = nullptr;
  }

  void SetUp() override {
    if (!fault::Enabled()) {
      GTEST_SKIP() << "built without FXRZ_FAULT_INJECT";
    }
    fault::ResetAll();
  }
  void TearDown() override { fault::ResetAll(); }

  double MidTarget() const { return fxrz_->model().ValidTargetRatios(3)[1]; }

  // These tests are about fault recovery, not the confidence gate: open
  // the gate wide so the model tier always runs (the query field's
  // features can sit slightly outside a 3-dataset training envelope).
  static GuardOptions OpenGate() {
    GuardOptions options;
    options.envelope_slack = 10.0;
    options.max_knob_spread = 100.0;
    return options;
  }

  static std::vector<Tensor>* fields_;
  static Fxrz* fxrz_;
};

std::vector<Tensor>* FaultLadderTest::fields_ = nullptr;
Fxrz* FaultLadderTest::fxrz_ = nullptr;

TEST_F(FaultLadderTest, CompressFaultAtModelTierRecoversViaFraz) {
  // The single injected Compress failure lands on the model-tier attempt;
  // the knob search, whose first probe is the estimate, then serves it.
  fault::Arm(Site::kCompressorCompress, /*skip=*/0, /*count=*/1);
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], MidTarget(), OpenGate());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tier, ServingTier::kKnobSearch);
  EXPECT_LE(r.value().relative_error, 0.08);
  // The ladder visits the compress site many times (HitCount counts every
  // visit); exactly one visit must have actually failed.
  EXPECT_EQ(fault::TriggeredCount(Site::kCompressorCompress), 1u);
  EXPECT_GE(fault::HitCount(Site::kCompressorCompress),
            fault::TriggeredCount(Site::kCompressorCompress));
}

TEST_F(FaultLadderTest, CompressFaultOnFrazProbeIsSeenAndNamed) {
  // The model-tier attempt succeeds but misses an unmeetable accept_error
  // (refinement is off), so the ladder's second compression is the
  // search's first probe -- and that is where the single fault lands:
  // search probes run through the same instrumented Compress as every
  // tier. Served
  // through FxrzServer without retries so "resolved exactly once" is the
  // callback count.
  ServeOptions options;
  options.guard = OpenGate();
  options.guard.accept_error = 1e-9;
  options.guard.max_refine_compressions = 0;
  options.retry.max_attempts = 1;
  FxrzServer server(*fxrz_, options);
  fault::Arm(Site::kCompressorCompress, /*skip=*/1, /*count=*/1);

  std::atomic<int> callbacks{0};
  ServeReply reply;
  ServeRequest request;
  request.data = &(*fields_)[3];
  request.target_ratio = MidTarget();
  request.callback = [&callbacks, &reply](ServeReply r) {
    reply = std::move(r);
    callbacks.fetch_add(1);
  };
  ASSERT_TRUE(server.Submit(std::move(request)).ok());
  server.Shutdown();  // flushes the request

  EXPECT_EQ(callbacks.load(), 1);
  EXPECT_EQ(fault::TriggeredCount(Site::kCompressorCompress), 1u);
  EXPECT_EQ(fault::HitCount(Site::kCompressorCompress), 2u)
      << "the failed probe ends the search";
  // The transient probe fault keeps exhaustion retryable, and the tier
  // trail names the tier it hit.
  EXPECT_EQ(reply.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(reply.status.message().find("search tier: Unavailable: injected"),
            std::string::npos)
      << reply.status.message();
}

TEST_F(FaultLadderTest, ForcedMisestimateIsCaughtByLadder) {
  // kModelQuery pushes the estimated knob to the far edge of the trained
  // range: the first compression misses the target, and refinement or
  // the search must still deliver an acceptable archive.
  fault::Arm(Site::kModelQuery, /*skip=*/0, /*count=*/1);
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], MidTarget(), OpenGate());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(fault::TriggeredCount(Site::kModelQuery), 1u);
  EXPECT_NE(r.value().tier, ServingTier::kModelEstimate)
      << "a mis-estimate this large cannot pass on the first attempt";
  EXPECT_LE(r.value().relative_error, 0.08);
}

TEST_F(FaultLadderTest, PersistentCompressFaultSurfacesAsStatus) {
  // Every tier's archive-producing compression fails: the ladder must
  // exhaust into a Status that names the injected fault, not abort.
  fault::Arm(Site::kCompressorCompress, /*skip=*/0, /*count=*/1000000);
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], MidTarget(), OpenGate());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("injected fault"), std::string::npos)
      << r.status().message();
}

TEST_F(FaultLadderTest, CompressFaultWithFallbackDisabledNamesModelTier) {
  fault::Arm(Site::kCompressorCompress, /*skip=*/0, /*count=*/1000000);
  GuardOptions options = OpenGate();
  options.fallback = GuardFallback::kServeBest;  // no archive to serve
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], MidTarget(), options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("model tier"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("search tier: fallback disabled"),
            std::string::npos)
      << r.status().message();
}

TEST_F(FaultLadderTest, VerifyArchiveCatchesDecodeFaultAndEscalates) {
  // With verify_archive on, the first served archive is decode-checked;
  // the injected decode fault invalidates that tier and the search must
  // serve a verified replacement.
  fault::Arm(Site::kArchiveDecode, /*skip=*/0, /*count=*/1);
  GuardOptions options = OpenGate();
  options.verify_archive = true;
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], MidTarget(), options);
  EXPECT_GE(fault::HitCount(Site::kArchiveDecode), 1u)
      << "verification must have exercised the decode site";
  if (r.ok()) {
    // A lower tier replaced the failed archive with a verified one.
    EXPECT_EQ(r.value().tier, ServingTier::kKnobSearch);
    EXPECT_TRUE(r.value().archive_verified);
  } else {
    // The fault landed on the last tier: the failure must be reported.
    EXPECT_NE(r.status().message().find("failed verification"),
              std::string::npos)
        << r.status().message();
  }
}

TEST_F(FaultLadderTest, ArchiveFailingVerificationIsNeverDegradeServed) {
  // The model-tier archive meets the (loose) target but fails its decode
  // check, so it is invalid. The request is cancelled during that
  // compression, so the checkpoint before the search's first probe fires:
  // expiry has no valid archive to degrade to, and the request must
  // resolve Cancelled rather than serve it.
  auto hooked = std::make_unique<HookedCompressor>(MakeCompressor("sz"));
  HookedCompressor* hook = hooked.get();
  Fxrz pipeline(std::move(hooked));
  std::vector<uint8_t> blob;
  ASSERT_TRUE(fxrz_->model().SaveToBytes(&blob).ok());
  ASSERT_TRUE(pipeline.model().LoadFromBytes(blob.data(), blob.size()).ok());
  fault::Arm(Site::kArchiveDecode, /*skip=*/0, /*count=*/1);
  GuardOptions options = OpenGate();
  options.verify_archive = true;
  options.accept_error = 10.0;
  CancelToken cancel;
  options.cancel = &cancel;
  hook->set_hook([&cancel](int) {
    cancel.Cancel();
    return Status::Ok();
  });
  const StatusOr<GuardedResult> r =
      pipeline.GuardedCompressToRatio((*fields_)[3], MidTarget(), options);
  EXPECT_EQ(hook->configs().size(), 1u) << "no search probe ran";
  EXPECT_EQ(fault::TriggeredCount(Site::kArchiveDecode), 1u);
  ASSERT_FALSE(r.ok()) << "served tier "
                       << ServingTierName(r.value().tier);
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();
}

TEST_F(FaultLadderTest, ChecksumOnlyVerificationNeverDecodes) {
  // A budget of exactly the base reservation admits the request but denies
  // the decode half of verification its headroom (one more tensor), so
  // verification stops after the checksum tier: the decompress fault site
  // is never even visited.
  const Tensor& test = (*fields_)[3];
  MemoryBudget budget(
      EstimatePeakBytes(fxrz_->compressor().name(), test.size_bytes()));
  GuardOptions options = OpenGate();
  options.verify_archive = true;
  options.memory = &budget;
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(test, MidTarget(), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().archive_verified);
  EXPECT_TRUE(r.value().memory_degraded);
  EXPECT_EQ(fault::HitCount(Site::kCompressorDecompress), 0u);

  // Full verification does decode.
  fault::ResetAll();
  options.memory = nullptr;
  const StatusOr<GuardedResult> full =
      fxrz_->GuardedCompressToRatio(test, MidTarget(), options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full.value().memory_degraded);
  EXPECT_GE(fault::HitCount(Site::kCompressorDecompress), 1u);
}

TEST_F(FaultLadderTest, BitrotAtChecksumTierInvalidatesTheArchive) {
  // A chunked compressor gives the checksum tier real CRCs to verify;
  // injected bitrot makes the first comparison lie, so the model tier's
  // archive is rejected without any decode, and a lower tier must serve a
  // verified replacement.
  Fxrz chunked(std::make_unique<ChunkedCompressor>(
      MakeCompressor("sz"), /*target_chunk_elems=*/1024));
  std::vector<uint8_t> blob;
  ASSERT_TRUE(fxrz_->model().SaveToBytes(&blob).ok());
  ASSERT_TRUE(chunked.model().LoadFromBytes(blob.data(), blob.size()).ok());

  // The base reservation plus one tensor: the model tier's checksum
  // failure asks for no decode, the search tier takes the tensor of
  // headroom, and every later decode check is denied, so verification
  // stays checksum-only throughout.
  const Tensor& test = (*fields_)[3];
  MemoryBudget budget(
      EstimatePeakBytes(chunked.compressor().name(), test.size_bytes()) +
      test.size_bytes());
  GuardOptions options = OpenGate();
  options.verify_archive = true;
  options.memory = &budget;
  fault::Arm(Site::kBitrot, /*skip=*/0, /*count=*/1);
  const StatusOr<GuardedResult> r =
      chunked.GuardedCompressToRatio(test, MidTarget(), options);
  EXPECT_EQ(fault::TriggeredCount(Site::kBitrot), 1u)
      << "the checksum tier must have consulted a CRC";
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().tier, ServingTier::kModelEstimate)
      << "the bitrot-failed first archive cannot be the one served";
  EXPECT_TRUE(r.value().archive_verified);
  EXPECT_TRUE(r.value().memory_degraded);
  EXPECT_EQ(fault::HitCount(Site::kCompressorDecompress), 0u);
}

TEST_F(FaultLadderTest, DecompressFaultIsTransient) {
  // A valid archive plus an injected decode failure: the first
  // Decompress errors cleanly, the retry succeeds.
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], MidTarget());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<uint8_t>& archive = r.value().compressed;

  fault::Arm(Site::kCompressorDecompress, /*skip=*/0, /*count=*/1);
  Tensor decoded;
  const Status first = fxrz_->compressor().Decompress(
      archive.data(), archive.size(), &decoded);
  EXPECT_FALSE(first.ok());
  const Status second = fxrz_->compressor().Decompress(
      archive.data(), archive.size(), &decoded);
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(decoded.dims(), (*fields_)[3].dims());
}

TEST_F(FaultLadderTest, ArchiveDecodeFaultSurfacesAsCorruption) {
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], MidTarget());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<uint8_t>& archive = r.value().compressed;

  fault::Arm(Site::kArchiveDecode, /*skip=*/0, /*count=*/1);
  Tensor decoded;
  const Status corrupted = fxrz_->compressor().Decompress(
      archive.data(), archive.size(), &decoded);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.code(), StatusCode::kCorruption);
  EXPECT_TRUE(fxrz_->compressor()
                  .Decompress(archive.data(), archive.size(), &decoded)
                  .ok());
}

}  // namespace
}  // namespace fxrz
