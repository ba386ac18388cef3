#include "src/core/guard.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "src/core/pipeline.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"

namespace fxrz {

namespace {

// Serving-path observability (DESIGN.md "Observability model"). Counters
// answer "how often does each ladder rung fire", the histograms give the
// estimation-error and ratio distributions the drift/retraining decisions
// hinge on. All handles resolve once (static) and cost one relaxed atomic
// per update afterwards.
struct GuardMetrics {
  metrics::Counter& requests = metrics::GetCounter(
      "fxrz_guard_requests_total", "Guarded serving requests");
  metrics::Counter& rejected = metrics::GetCounter(
      "fxrz_guard_admission_rejected_total",
      "Requests refused by input admission");
  metrics::Counter& exhausted = metrics::GetCounter(
      "fxrz_guard_exhausted_total",
      "Requests no ladder tier could serve within accept_error");
  metrics::Counter& low_confidence = metrics::GetCounter(
      "fxrz_guard_low_confidence_total",
      "Requests whose confidence gate skipped the model tiers");
  metrics::Counter& verify_failures = metrics::GetCounter(
      "fxrz_guard_verify_failures_total",
      "Pre-serve archive verifications that failed (tier invalidated)");
  metrics::Counter& deadline_exceeded = metrics::GetCounter(
      "fxrz_guard_deadline_exceeded_total",
      "Requests ended by an expired deadline (no archive to degrade to)");
  metrics::Counter& cancelled = metrics::GetCounter(
      "fxrz_guard_cancelled_total",
      "Requests ended by cooperative cancellation");
  metrics::Counter& deadline_degraded = metrics::GetCounter(
      "fxrz_guard_deadline_degraded_total",
      "Requests served a lower-tier archive because the deadline/cancel "
      "checkpoint fired mid-ladder");
  metrics::Counter& memory_rejected = metrics::GetCounter(
      "fxrz_guard_memory_rejected_total",
      "Requests refused because the memory budget could not cover the "
      "codec's base reservation (retryable: reservations free over time)");
  metrics::Counter& memory_degraded = metrics::GetCounter(
      "fxrz_guard_memory_degraded_total",
      "Requests that skipped a memory-heavy tier (FRaZ search or "
      "decode-verify) because the memory budget was tight");
  metrics::Counter& compressions = metrics::GetCounter(
      "fxrz_guard_compressions_total",
      "Compressor invocations spent by guarded requests (all tiers)");
  metrics::Histogram& relative_error = metrics::GetHistogram(
      "fxrz_guard_relative_error", metrics::RelErrorBuckets(),
      "Relative |target-measured|/target error of served archives");
  metrics::Histogram& target_ratio = metrics::GetHistogram(
      "fxrz_guard_target_ratio", metrics::RatioBuckets(),
      "Requested target compression ratios of admitted requests");
  metrics::Histogram& measured_ratio = metrics::GetHistogram(
      "fxrz_guard_measured_ratio", metrics::RatioBuckets(),
      "Measured compression ratios of served archives");
};

GuardMetrics& GMetrics() {
  static GuardMetrics* m = new GuardMetrics();  // never destroyed
  return *m;
}

metrics::Counter& ServedCounter(ServingTier tier) {
  auto make = [](const char* name) -> metrics::Counter* {
    return &metrics::GetCounter(
        std::string("fxrz_guard_served_total{tier=\"") + name + "\"}",
        "Served requests by escalation-ladder tier");
  };
  static metrics::Counter* constant = make("constant-field");
  static metrics::Counter* model = make("model-estimate");
  static metrics::Counter* refined = make("refined");
  static metrics::Counter* fraz = make("fraz-fallback");
  switch (tier) {
    case ServingTier::kConstantField: return *constant;
    case ServingTier::kModelEstimate: return *model;
    case ServingTier::kRefined: return *refined;
    case ServingTier::kFrazFallback: return *fraz;
    case ServingTier::kRejected: break;
  }
  return *constant;  // unreachable: rejected requests never serve
}

}  // namespace

const char* ServingTierName(ServingTier tier) {
  switch (tier) {
    case ServingTier::kRejected: return "rejected";
    case ServingTier::kConstantField: return "constant-field";
    case ServingTier::kModelEstimate: return "model-estimate";
    case ServingTier::kRefined: return "refined";
    case ServingTier::kFrazFallback: return "fraz-fallback";
  }
  return "?";
}

Status ValidateGuardOptions(const GuardOptions& options) {
  if (!std::isfinite(options.accept_error) || options.accept_error < 0.0) {
    return Status::InvalidArgument(
        "guard options: accept_error must be finite and >= 0");
  }
  if (!std::isfinite(options.max_knob_spread) ||
      !std::isfinite(options.envelope_slack)) {
    return Status::InvalidArgument(
        "guard options: confidence-gate thresholds must be finite");
  }
  if (options.max_refine_compressions < 0) {
    return Status::InvalidArgument(
        "guard options: max_refine_compressions must be >= 0");
  }
  if (!std::isfinite(options.fraz.tolerance) ||
      options.fraz.tolerance < 0.0) {
    return Status::InvalidArgument(
        "guard options: fraz.tolerance must be finite and >= 0");
  }
  return Status::Ok();
}

GuardOptions PaperPolicy(int refine_compressions) {
  GuardOptions options;
  options.max_refine_compressions = refine_compressions;
  options.fallback = GuardFallback::kServeBest;
  options.max_knob_spread = std::numeric_limits<double>::max();
  options.envelope_slack = std::numeric_limits<double>::max();
  return options;
}

AdmissionReport AdmitTensor(const Tensor& data, double target_ratio) {
  FXRZ_TRACE_SPAN("guard.admission");
  AdmissionReport report;
  if (data.empty()) {
    report.status = Status::InvalidArgument("admission: empty tensor");
    return report;
  }
  if (!std::isfinite(target_ratio)) {
    report.status =
        Status::InvalidArgument("admission: non-finite target ratio");
    return report;
  }
  if (target_ratio < 1.0 || target_ratio > 1e9) {
    std::ostringstream msg;
    msg << "admission: target ratio " << target_ratio
        << " outside [1, 1e9]";
    report.status = Status::InvalidArgument(msg.str());
    return report;
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < data.size(); ++i) {
    const double v = data[i];
    if (!std::isfinite(v)) {
      ++report.nonfinite_values;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (report.nonfinite_values > 0) {
    std::ostringstream msg;
    msg << "admission: " << report.nonfinite_values << " of " << data.size()
        << " values are NaN/Inf";
    report.status = Status::InvalidArgument(msg.str());
    return report;
  }
  report.constant_field = lo == hi;
  report.admitted = true;
  return report;
}

namespace {

// Bisection compressions PolishTowardTarget may spend.
constexpr int kMaxPolishCompressions = 10;

// One guarded compressor run: clamp the config into the space, compress,
// measure the achieved ratio.
struct Attempt {
  double config = 0.0;
  double ratio = 0.0;
  std::vector<uint8_t> bytes;
};

StatusOr<Attempt> AttemptCompress(const Compressor& compressor,
                                  const Tensor& data, const ConfigSpace& space,
                                  double config) {
  Attempt attempt;
  if (space.integer) config = std::round(config);
  attempt.config = std::clamp(config, space.min, space.max);
  FXRZ_ASSIGN_OR_RETURN(attempt.bytes,
                        compressor.Compress(data, attempt.config));
  attempt.ratio = static_cast<double>(data.size_bytes()) /
                  static_cast<double>(attempt.bytes.size());
  return attempt;
}

// Monotone polish for the FRaZ tier: ratio-vs-knob is monotone for every
// built-in codec, so a bounded bisection from FRaZ's best probe closes the
// gap its budgeted black-box search left open (when the target is
// reachable at all). A compressor failure mid-polish keeps the best
// archive found so far -- this path must never turn a good attempt into
// an error. Deadline/cancel expiry likewise just stops polishing (the
// caller's post-tier checkpoint decides whether to degrade-serve).
Attempt PolishTowardTarget(const Compressor& compressor, const Tensor& data,
                           const ConfigSpace& space, Attempt seed,
                           double target_ratio, double accept_error,
                           int* compressions,
                           const Deadline& deadline,
                           const CancelToken* cancel) {
  const auto to_knob = [&space](double config) {
    return space.log_scale ? std::log10(config) : config;
  };
  const auto to_config = [&space](double knob) {
    return space.log_scale ? std::pow(10.0, knob) : knob;
  };
  double lo = to_knob(space.min);
  double hi = to_knob(space.max);
  // Replace the endpoint on the seed's side of the target: when the seed's
  // ratio is low and ratios grow toward hi, the answer lies above it.
  if ((seed.ratio < target_ratio) == space.ratio_increases) {
    lo = to_knob(seed.config);
  } else {
    hi = to_knob(seed.config);
  }
  Attempt best = std::move(seed);
  for (int i = 0; i < kMaxPolishCompressions && lo < hi; ++i) {
    if (!CheckCancel(deadline, cancel, "polish").ok()) break;
    if (space.integer && hi - lo < 1.0) break;  // knob resolution exhausted
    const double mid = 0.5 * (lo + hi);
    StatusOr<Attempt> probe =
        AttemptCompress(compressor, data, space, to_config(mid));
    if (!probe.ok()) break;
    ++*compressions;
    Attempt attempt = std::move(probe).value();
    if ((attempt.ratio < target_ratio) == space.ratio_increases) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (EstimationError(target_ratio, attempt.ratio) <
        EstimationError(target_ratio, best.ratio)) {
      best = std::move(attempt);
      if (EstimationError(target_ratio, best.ratio) <= accept_error) break;
    }
  }
  return best;
}

}  // namespace

StatusOr<GuardedResult> Fxrz::GuardedCompressToRatio(
    const Tensor& data, double target_ratio,
    const GuardOptions& options) const {
  FXRZ_TRACE_SPAN("guard.request");
  GMetrics().requests.Increment();
  if (Status valid = ValidateGuardOptions(options); !valid.ok()) {
    GMetrics().rejected.Increment();
    return valid;
  }
  const AdmissionReport admission = AdmitTensor(data, target_ratio);
  if (!admission.admitted) {
    GMetrics().rejected.Increment();
    return admission.status;
  }
  // Memory admission: reserve the codec's estimated peak working set up
  // front, release it (RAII) when the request resolves. Denial is
  // retryable -- other requests' reservations free as they resolve -- so
  // the serving layer's backoff loop, not an OOM killer, absorbs memory
  // pressure.
  MemReservation memory;
  if (options.memory != nullptr) {
    const uint64_t need =
        EstimatePeakBytes(compressor_->name(), data.size_bytes());
    uint64_t free_bytes = 0;
    memory = options.memory->TryReserve(need, &free_bytes);
    if (!memory.held()) {
      GMetrics().memory_rejected.Increment();
      // free_bytes is the value the denial was decided against, observed
      // under the budget's admission lock -- never torn by concurrent
      // reservations.
      return Status::ResourceExhausted(
          "guard: memory budget exhausted (need " + std::to_string(need) +
          " bytes, " + std::to_string(free_bytes) + " free)");
    }
  }
  GMetrics().target_ratio.Observe(target_ratio);

  const uint64_t tensor_bytes = data.size_bytes();
  const ConfigSpace space = compressor_->config_space(data);
  const double accept_error = std::max(options.accept_error, 0.0);
  GuardedResult result;
  // First skip of a memory-heavy tier marks the request degraded (once).
  auto memory_degrade = [&result] {
    if (!result.memory_degraded) {
      result.memory_degraded = true;
      GMetrics().memory_degraded.Increment();
    }
  };
  // Extra headroom for the decode half of verification: the decoded tensor
  // is live alongside the archive and the input. Checked at most once per
  // request; on denial every verification this request runs stays
  // checksum-only.
  bool decode_mem_checked = false;
  bool decode_mem_granted = true;
  auto decode_verify_allowed = [&]() {
    if (options.memory == nullptr) return true;
    if (!decode_mem_checked) {
      decode_mem_checked = true;
      decode_mem_granted = memory.TryGrow(tensor_bytes);
      if (!decode_mem_granted) memory_degrade();
    }
    return decode_mem_granted;
  };
  // Cooperative deadline/cancel checkpoint, evaluated between compressions
  // (see GuardOptions::deadline). Cancel wins over an expired deadline.
  auto checkpoint = [&](const char* where) {
    return CheckCancel(options.deadline, options.cancel, where);
  };
  // True once any tier failed with a retryable Status (injected transient
  // backend faults surface as Unavailable): exhaustion is then reported as
  // Unavailable too, so the serving layer's retry loop knows the same
  // request may succeed on a fresh attempt.
  bool transient_failure = false;
  auto note_failure = [&](const std::string& tier, const Status& status) {
    transient_failure = transient_failure || StatusIsRetryable(status);
    return tier + ": " + status.ToString();
  };
  std::string trail;  // per-tier notes for the exhaustion message
  auto note = [&trail](const std::string& s) {
    if (!trail.empty()) trail += "; ";
    trail += s;
  };
  auto accept = [&](ServingTier tier, Attempt&& attempt) -> GuardedResult {
    result.tier = tier;
    result.config = attempt.config;
    result.measured_ratio = attempt.ratio;
    result.relative_error = EstimationError(target_ratio, attempt.ratio);
    result.archive_verified = options.verify_archive;
    result.compressed = std::move(attempt.bytes);
    if (options.drift != nullptr) {
      options.drift->Record(target_ratio, result.measured_ratio);
    }
    ServedCounter(tier).Increment();
    GMetrics().compressions.Increment(result.compressions);
    GMetrics().relative_error.Observe(result.relative_error);
    GMetrics().measured_ratio.Observe(result.measured_ratio);
    return std::move(result);
  };
  // Pre-serve verification (GuardOptions::verify_archive): an archive that
  // fails invalidates its tier and the ladder escalates. The cheap
  // checksum tier (Compressor::VerifyIntegrity) runs first -- bitrot-class
  // corruption is caught without paying for a decode -- then the full
  // decode check unless verify_checksum_only stops there.
  auto verified = [&](const Attempt& attempt, const char* tier) -> bool {
    if (!options.verify_archive) return true;
    FXRZ_TRACE_SPAN("guard.verify");
    Status status =
        compressor_->VerifyIntegrity(attempt.bytes.data(),
                                     attempt.bytes.size());
    // The decode half needs budget headroom for the decoded tensor; when
    // the budget is tight the verification degrades to checksum-only
    // rather than risking the very OOM the budget exists to prevent.
    if (status.ok() && !options.verify_checksum_only &&
        decode_verify_allowed()) {
      Tensor decoded;
      status = compressor_->Decompress(attempt.bytes.data(),
                                       attempt.bytes.size(), &decoded);
      if (status.ok() && decoded.dims() != data.dims()) {
        status = Status::Corruption("decoded shape mismatch");
      }
    }
    if (!status.ok()) {
      GMetrics().verify_failures.Increment();
      note(std::string(tier) + ": archive failed verification [" +
           status.ToString() + "]");
      return false;
    }
    return true;
  };

  // Nothing compressed yet, so expiry here cannot degrade: return the
  // checkpoint Status directly.
  if (Status cp = checkpoint("guard: admission"); !cp.ok()) {
    (cp.code() == StatusCode::kCancelled ? GMetrics().cancelled
                                         : GMetrics().deadline_exceeded)
        .Increment();
    return cp;
  }

  // Constant-field fast path: the features are degenerate (zero range), so
  // the model has nothing to say -- any mid-range config reaches an
  // enormous ratio, which can only over-achieve the target.
  if (admission.constant_field) {
    FXRZ_TRACE_SPAN("guard.constant_tier");
    const double mid = space.log_scale ? std::sqrt(space.min * space.max)
                                       : 0.5 * (space.min + space.max);
    StatusOr<Attempt> attempt = AttemptCompress(*compressor_, data, space, mid);
    if (!attempt.ok()) {
      // A transient backend fault on the only tier this request can use:
      // surface it retryably instead of burying it in an Internal wrapper.
      if (StatusIsRetryable(attempt.status())) return attempt.status();
      return Status::Internal(std::string("guarded compress: tier ") +
                              ServingTierName(ServingTier::kConstantField) +
                              " failed [" + attempt.status().ToString() + "]");
    }
    ++result.compressions;
    Attempt constant = std::move(attempt).value();
    if (!verified(constant, "constant-field tier")) {
      return Status::Internal(std::string("guarded compress: tier ") +
                              ServingTierName(ServingTier::kConstantField) +
                              " failed [" + trail + "]");
    }
    return accept(ServingTier::kConstantField, std::move(constant));
  }

  Attempt best;
  bool have_best = false;
  ServingTier best_tier = ServingTier::kModelEstimate;
  auto miss = [&](const Attempt& a) {
    return EstimationError(target_ratio, a.ratio);
  };
  // Deadline/cancel fired mid-ladder. With an archive in hand and
  // degrade_on_expiry set, serve it (flagged) rather than waste the work;
  // otherwise propagate the checkpoint Status.
  auto expire = [&](Status why) -> StatusOr<GuardedResult> {
    (why.code() == StatusCode::kCancelled ? GMetrics().cancelled
                                          : GMetrics().deadline_exceeded)
        .Increment();
    if (options.degrade_on_expiry && have_best) {
      GMetrics().deadline_degraded.Increment();
      result.deadline_degraded = true;
      return accept(best_tier, std::move(best));
    }
    GMetrics().compressions.Increment(result.compressions);
    return why;
  };

  // Tiers 1-2: model estimate, then one-measurement refinement -- gated on
  // a trained model that is confident about this query.
  if (!model_.trained()) {
    note("model tier: model not trained");
  } else {
    FXRZ_TRACE_SPAN("guard.model_tier");
    const FxrzModel::ConfidentEstimate est =
        model_.EstimateWithConfidence(data, target_ratio);
    result.knob_spread = est.knob_spread;
    result.out_of_distribution = est.envelope_excess > options.envelope_slack;
    const bool spread_ok =
        !est.has_spread || est.knob_spread <= options.max_knob_spread;
    result.low_confidence = !spread_ok || result.out_of_distribution;
    if (result.low_confidence) {
      GMetrics().low_confidence.Increment();
      std::ostringstream msg;
      msg << "confidence gate: ";
      if (!spread_ok) msg << "knob spread " << est.knob_spread;
      if (result.out_of_distribution) {
        if (!spread_ok) msg << ", ";
        msg << "envelope excess " << est.envelope_excess;
      }
      note(msg.str());
    } else {
      if (Status cp = checkpoint("guard: model tier"); !cp.ok()) {
        return expire(std::move(cp));
      }
      StatusOr<Attempt> first =
          AttemptCompress(*compressor_, data, space, est.config);
      if (!first.ok()) {
        note(note_failure("model tier", first.status()));
      } else {
        ++result.compressions;
        best = std::move(first).value();
        have_best = true;
        best_tier = ServingTier::kModelEstimate;
        if (miss(best) <= accept_error) {
          if (verified(best, "model tier")) {
            return accept(ServingTier::kModelEstimate, std::move(best));
          }
          // Verification failed: the archive is never served; skip
          // refinement (the knob is fine, the archive is not), escalate.
          have_best = false;
        } else {
          for (int extra = 0; extra < options.max_refine_compressions;
               ++extra) {
            if (Status cp = checkpoint("guard: refine tier"); !cp.ok()) {
              return expire(std::move(cp));
            }
            const double corrected = model_.RefineConfig(
                data, target_ratio, best.config, best.ratio);
            if (corrected == best.config) {
              note("refine tier: correction clamped, no progress possible");
              break;
            }
            StatusOr<Attempt> again =
                AttemptCompress(*compressor_, data, space, corrected);
            if (!again.ok()) {
              note(note_failure("refine tier", again.status()));
              break;
            }
            ++result.compressions;
            if (miss(again.value()) >= miss(best)) {
              note("refine tier: correction did not improve");
              break;
            }
            best = std::move(again).value();
            best_tier = ServingTier::kRefined;
            if (miss(best) <= accept_error) {
              if (verified(best, "refine tier")) {
                return accept(ServingTier::kRefined, std::move(best));
              }
              have_best = false;
              break;
            }
          }
          if (have_best && miss(best) > accept_error) {
            std::ostringstream msg;
            msg << "refine tier: best rel err " << miss(best);
            note(msg.str());
          }
        }
      }
    }
  }

  // Tier 3: bounded FRaZ trial-and-error fallback.
  bool fraz_memory_skipped = false;
  if (options.fallback != GuardFallback::kFraz) {
    note("fraz tier: fallback disabled");
  } else if (options.memory != nullptr && !memory.TryGrow(tensor_bytes)) {
    // The search keeps its best-so-far archive live alongside each probe's;
    // without headroom for that the tier is skipped (memory_degraded)
    // rather than allowed to breach the peak the budget promises.
    fraz_memory_skipped = true;
    memory_degrade();
    note("fraz tier: skipped (memory budget exhausted)");
  } else {
    if (Status cp = checkpoint("guard: fraz tier"); !cp.ok()) {
      return expire(std::move(cp));
    }
    FXRZ_TRACE_SPAN("guard.fraz_tier");
    FrazOptions fraz = options.fraz;  // sanitize: never abort on bad knobs
    fraz.num_bins = std::max(1, fraz.num_bins);
    fraz.total_max_iterations =
        std::max(fraz.num_bins, fraz.total_max_iterations);
    // Overlay the request's deadline/cancel on any caller-provided stop
    // hook so FRaZ's inner loop also honors the budget (within one
    // compression, its poll granularity).
    const std::function<bool()> caller_stop = std::move(fraz.should_stop);
    fraz.should_stop = [&options, &caller_stop] {
      if (caller_stop && caller_stop()) return true;
      return (options.cancel != nullptr && options.cancel->cancelled()) ||
             options.deadline.expired();
    };
    FrazResult found = FrazSearch(*compressor_, data, target_ratio, fraz);
    result.compressions += found.compressor_runs;
    if (!found.status.ok()) note(note_failure("fraz tier", found.status));
    if (Status cp = checkpoint("guard: fraz tier"); !cp.ok()) {
      return expire(std::move(cp));
    }
    if (found.compressed.empty()) {
      if (found.status.ok()) note("fraz tier: search stopped before any probe");
    } else {
      // FRaZ kept its best probe's archive: polish from it, no extra run.
      Attempt attempt{found.config, found.achieved_ratio,
                      std::move(found.compressed)};
      if (miss(attempt) > accept_error) {
        attempt = PolishTowardTarget(*compressor_, data, space,
                                     std::move(attempt), target_ratio,
                                     accept_error, &result.compressions,
                                     options.deadline, options.cancel);
      }
      const bool met = miss(attempt) <= accept_error;
      if (met && verified(attempt, "fraz tier")) {
        return accept(ServingTier::kFrazFallback, std::move(attempt));
      }
      std::ostringstream msg;
      msg << "fraz tier: best achievable ratio " << attempt.ratio
          << " (rel err " << miss(attempt) << ")";
      note(msg.str());
      if (!met && (!have_best || miss(attempt) < miss(best))) {
        best = std::move(attempt);
        have_best = true;
        best_tier = ServingTier::kFrazFallback;
      }
      if (Status cp = checkpoint("guard: post-fraz"); !cp.ok()) {
        return expire(std::move(cp));
      }
    }
  }

  // Ladder exhausted: no tier met the target.
  GMetrics().exhausted.Increment();
  if (options.fallback == GuardFallback::kServeBest && have_best &&
      verified(best, "best archive")) {
    return accept(best_tier, std::move(best));
  }
  GMetrics().compressions.Increment(result.compressions);
  std::ostringstream msg;
  msg << "guarded compress: target ratio " << target_ratio
      << " not met within rel err " << accept_error;
  if (have_best) msg << "; best measured ratio " << best.ratio;
  msg << " [" << trail << "]";
  // Exhaustion caused (at least partly) by a transient backend fault is
  // itself transient: report it retryably so the serving layer's backoff
  // loop gets another shot at the same request. Likewise exhaustion after
  // a memory-skipped tier: reservations free as other requests resolve,
  // so the skipped tier may run on a later attempt.
  if (transient_failure) return Status::Unavailable(msg.str());
  if (fraz_memory_skipped) return Status::ResourceExhausted(msg.str());
  return Status::Internal(msg.str());
}

}  // namespace fxrz
