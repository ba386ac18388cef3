// Archiving a multi-field simulation output under a hard storage budget --
// the paper's "limited storage space" use case (Sec. III-B), end to end:
//
//   1. AllocateStorageBudget turns (fields, quota, quality weights) into
//      per-field target compression ratios;
//   2. each field's trained Fxrz pipeline serves an archive for its target;
//   3. FieldStoreWriter packs the served archives into one self-describing
//      archive, without compressing anything again;
//   4. FieldStoreReader restores any field on demand.
//
// Run: ./example_fixed_ratio_archiver

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/budget.h"
#include "src/core/pipeline.h"
#include "src/data/generators/nyx.h"
#include "src/data/statistics.h"
#include "src/store/field_store.h"

int main() {
  using namespace fxrz;

  const double kQuotaRatio = 30.0;  // archive must be 30x smaller than raw

  const NyxConfig train_config = NyxConfig1();
  const NyxConfig run_config = NyxConfig2();  // the user's own simulation

  // One FXRZ model per field (fields compress very differently).
  std::printf("Training per-field models...\n");
  std::vector<std::unique_ptr<Fxrz>> pipelines;
  std::vector<Tensor> fields;
  std::vector<std::vector<Tensor>> snapshots(4);
  for (size_t i = 0; i < 4; ++i) {
    const char* field = kNyxFields[i];
    for (int t = 0; t < 5; ++t) {
      snapshots[i].push_back(GenerateNyxField(train_config, field, t));
    }
    std::vector<const Tensor*> train;
    for (const Tensor& s : snapshots[i]) train.push_back(&s);
    pipelines.push_back(std::make_unique<Fxrz>(MakeCompressor("sz")));
    pipelines.back()->Train(train);
    fields.push_back(GenerateNyxField(run_config, field, 3));
  }

  // Budget: baryon density gets double quality weight (it feeds the halo
  // analysis); velocity is least critical.
  size_t raw_total = 0;
  for (const Tensor& f : fields) raw_total += f.size_bytes();
  const uint64_t quota = static_cast<uint64_t>(raw_total / kQuotaRatio);
  std::vector<BudgetRequest> requests = {
      {"baryon_density", &fields[0], 2.0},
      {"dark_matter_density", &fields[1], 1.0},
      {"temperature", &fields[2], 1.0},
      {"velocity_x", &fields[3], 0.8},
  };
  const std::vector<BudgetAllocation> allocations =
      AllocateStorageBudget(requests, quota);

  std::printf("\nraw %zu KB, quota %llu KB (%.0fx)\n", raw_total / 1024,
              static_cast<unsigned long long>(quota / 1024), kQuotaRatio);
  std::printf("%-22s %8s %12s %12s %12s\n", "field", "weight", "quota KB",
              "target", "achieved");

  // Build the archive. Each field is served by its own pipeline; the store
  // records the compressor, knob and achieved ratio per field.
  FieldStoreWriter archive("sz");
  for (size_t i = 0; i < allocations.size(); ++i) {
    // Targets beyond the compressor's achievable range (as learned in
    // training) are clamped -- asking SZ for more than it can deliver
    // would silently blow other fields' budgets instead.
    const double target = std::min(allocations[i].target_ratio,
                                   0.9 * pipelines[i]->model().max_trained_ratio());
    // The hybrid refinement mode verifies the estimate with one extra
    // compression when needed -- worth it when a hard quota is at stake.
    auto served = pipelines[i]->GuardedCompressToRatio(fields[i], target,
                                                       PaperPolicy(1));
    const Status st =
        served.ok() ? archive.AddFieldFixedRatio(allocations[i].name, target,
                                                 std::move(served).value())
                    : served.status();
    if (!st.ok()) {
      std::fprintf(stderr, "archive error: %s\n", st.ToString().c_str());
      return 1;
    }
    const FieldEntry& e = archive.entries().back();
    std::printf("%-22s %8.1f %12llu %11.1fx %11.1fx\n",
                allocations[i].name.c_str(), requests[i].weight,
                static_cast<unsigned long long>(allocations[i].budget_bytes / 1024),
                allocations[i].target_ratio, e.achieved_ratio);
  }

  const uint64_t archived = archive.payload_bytes();
  std::printf("\narchive payload %llu KB vs quota %llu KB (%s)\n",
              static_cast<unsigned long long>(archived / 1024),
              static_cast<unsigned long long>(quota / 1024),
              archived <= quota * 1.25 ? "within ~25% of budget"
                                       : "budget missed -- retrain");

  // Round-trip proof: restore one field and check its distortion.
  FieldStoreReader reader;
  if (!reader.FromBytes(archive.Serialize()).ok()) return 1;
  Tensor restored;
  if (!reader.ReadField("baryon_density", &restored).ok()) return 1;
  const DistortionStats d = ComputeDistortion(fields[0], restored);
  std::printf("restored baryon_density: PSNR %.1f dB, max error %.4g\n",
              d.psnr, d.max_abs_error);
  return 0;
}
