// Guarded serving layer: the "never abort" production entry point.
//
// Fxrz::GuardedCompressToRatio (declared in core/pipeline.h, implemented
// here) wraps the fixed-ratio fast path in four defenses:
//
//   1. input admission   -- empty/non-finite tensors and insane target
//                           ratios are rejected with a Status before any
//                           feature extraction can touch them; constant
//                           fields take a dedicated fast path;
//   2. confidence gate   -- the forest's per-tree knob spread and the
//                           training feature envelope (FxrzModel::
//                           EstimateWithConfidence) flag out-of-
//                           distribution queries before compressing;
//   3. escalation ladder -- model estimate -> RefineConfig recompression
//                           -> the GuardOptions::fallback tier (default: a
//                           bracketed knob search, kOutOfRange when out of
//                           reach), recording which tier produced it;
//   4. fault tolerance   -- every codec run (each tier's attempt and
//                           each search probe) goes through the Status-
//                           returning Compressor::Compress/Decompress;
//                           codec runs and model queries carry the
//                           deterministic fault-injection points of
//                           util/fault_injection.h, so tests can force
//                           every failure branch.
//
// The ladder preserves FXRZ's value proposition: the fast path is still
// one model query and one compression; the expensive tiers only run when
// the cheap ones demonstrably failed. The paper's own fixed-ratio path is
// this ladder under PaperPolicy(k) below.

#ifndef FXRZ_CORE_GUARD_H_
#define FXRZ_CORE_GUARD_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/core/drift.h"
#include "src/data/tensor.h"
#include "src/fraz/fraz.h"
#include "src/util/deadline.h"
#include "src/util/mem_budget.h"
#include "src/util/status.h"

namespace fxrz {

// Which rung of the escalation ladder produced (or failed to produce) the
// archive. Order matters: higher tiers are more expensive.
enum class ServingTier {
  kRejected = 0,    // admission refused the request; nothing was compressed
  kConstantField,   // constant-field fast path (one compression)
  kModelEstimate,   // single model-estimated compression (the fast path)
  kRefined,         // model estimate + RefineConfig recompression
  kKnobSearch,      // bracketed monotone search on the knob
  kFrazFallback = kKnobSearch,  // former name; perfbench still reads it
};

const char* ServingTierName(ServingTier tier);

// Outcome of the admission scan.
struct AdmissionReport {
  bool admitted = false;
  // max - min of the admitted tensor, bit-identical to ValueRange (data/
  // statistics.h); the ladder's config_space reads it. Zero is a constant
  // field (incl. single-element tensors): admitted, but served by the
  // constant-field fast path, since its degenerate features are
  // meaningless to the model and any config reaches an enormous ratio.
  double value_range = 0.0;
  size_t nonfinite_values = 0;  // NaN/Inf sample count (rejected when > 0)
  Status status;                // why not admitted (OK when admitted)
};

// Validates a (tensor, target ratio) request: the tensor must be non-empty
// and all-finite, the target finite and in [1, 1e9]. One O(n) pass, in chunks
// on the shared thread pool; never aborts.
AdmissionReport AdmitTensor(const Tensor& data, double target_ratio);

// The ladder's final tier, run once the model tiers missed accept_error.
enum class GuardFallback {
  kSearch,     // bracketed knob search; kOutOfRange when unreachable
  kServeBest,  // serve the best model-tier archive, whatever its error
};

// Serving policy knobs.
struct GuardOptions {
  // Relative ratio error (|target - measured| / target) at or below which
  // a tier's archive is accepted.
  double accept_error = 0.08;
  // Extra compressions the RefineConfig tier may spend (none under kSearch
  // when the target lies outside the model's trained ratio range).
  int max_refine_compressions = 1;
  // Confidence gate: skip the model tiers, and make the estimate the
  // search's first probe, when the per-tree knob spread (stddev, knob
  // units) exceeds max_knob_spread, or the query leaves the training
  // envelope by more than envelope_slack (normalized units, see
  // FxrzModel::ConfidentEstimate::envelope_excess).
  double max_knob_spread = 0.5;
  double envelope_slack = 0.25;
  // kServeBest still counts the request as exhausted; with no archive in
  // hand it returns the exhaustion Status.
  GuardFallback fallback = GuardFallback::kSearch;
  // Not a serving knob (the ladder never runs FRaZ): read only by perfbench's
  // traced FRaZ replay, until the benchmark reads per-request traces.
  static inline const FrazOptions fraz{};
  // Verify every archive before serving it: a tier whose archive fails
  // verification is invalidated and the ladder escalates, so a corrupt
  // stream is never returned as a success. Verification itself is a
  // two-tier ladder: a cheap checksum/structural pass
  // (Compressor::VerifyIntegrity -- for chunked archives this validates
  // every per-chunk CRC32C without entropy-decoding anything) always runs
  // first, then the full decode check (Decompress + shape match).
  // Costs one decompression per served request; off by default to keep
  // the fast path at exactly one compression.
  bool verify_archive = false;
  // Optional: every archive-producing request is recorded here
  // (target vs measured ratio), feeding the retraining recommendation.
  DriftMonitor* drift = nullptr;
  // Per-request time budget and cooperative cancel, checked before every
  // compression the ladder runs (model tier, each refine compression, each
  // search probe). Expiry between compressions -- never mid-compression; the
  // checkpoints are cooperative -- ends the ladder early: a request holding
  // a lower tier's archive is served it, possibly outside accept_error and
  // flagged GuardedResult::deadline_degraded, since a worse ratio beats no
  // archive; a request holding none returns DeadlineExceeded/Cancelled.
  // Defaults: no deadline, no cancel.
  Deadline deadline;
  const CancelToken* cancel = nullptr;
  // Memory admission control (see util/mem_budget.h). When set, the ladder
  // reserves the codec's estimated peak working set before compressing
  // anything -- a request the budget cannot cover returns ResourceExhausted
  // (retryable: reservations free as other requests resolve) instead of
  // risking an OOM. The memory-heavy extras -- the decode half of archive
  // verification and the knob-search tier -- each need additional
  // headroom; when the budget cannot grant it they are skipped and the
  // request is served anyway, flagged GuardedResult::memory_degraded
  // (verification then stops after the checksum tier).
  // nullptr (default) disables memory accounting entirely.
  MemoryBudget* memory = nullptr;
};

// A served request. Only produced together with a valid archive.
struct GuardedResult {
  ServingTier tier = ServingTier::kRejected;
  double config = 0.0;
  double measured_ratio = 0.0;
  // |target - measured| / target of the returned archive.
  double relative_error = 0.0;
  // Total compressor invocations spent (all tiers, incl. search probes).
  int compressions = 0;
  // Confidence diagnostics (meaningful when the model was consulted).
  bool low_confidence = false;       // gate tripped; model tiers skipped
  bool out_of_distribution = false;  // envelope component of the gate
  double knob_spread = 0.0;
  // True when GuardOptions::verify_archive verified this archive: always
  // its checksum tier, and its decode check unless memory_degraded.
  bool archive_verified = false;
  // True when the deadline/cancel checkpoint ended the ladder early and the
  // request was served the best archive found so far (which may miss
  // accept_error); see GuardOptions::deadline.
  bool deadline_degraded = false;
  // True when a memory-heavy tier (knob search, decode-verify) was skipped
  // because GuardOptions::memory could not grant the extra headroom; the
  // served archive is valid but had fewer quality/verification tiers
  // applied than the policy asked for.
  bool memory_degraded = false;
  std::vector<uint8_t> compressed;
};

// The paper's fixed-ratio policy, plus its Sec. VI refinement: compress at
// the clamped model estimate, refine up to `refine_compressions` times, and
// serve the best archive whatever its error (kServeBest, no search). The
// confidence gate is open: its thresholds are the largest finite double.
GuardOptions PaperPolicy(int refine_compressions = 0);

// Rejects GuardOptions carrying values no ladder tier can act on (NaN
// thresholds, negative tier budgets) with InvalidArgument instead of
// relying on each tier's comparison semantics to fail shut. Called by
// GuardedCompressToRatio on every request; cheap (pure field checks).
Status ValidateGuardOptions(const GuardOptions& options);

}  // namespace fxrz

#endif  // FXRZ_CORE_GUARD_H_
