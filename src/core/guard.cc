#include "src/core/guard.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
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
      "Requests that skipped a memory-heavy tier (knob search or "
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

// One series per serving tier (rejected requests never serve), all
// registered on first use so a scrape shows idle tiers as 0.
metrics::Counter& ServedCounter(ServingTier tier) {
  static const std::vector<metrics::Counter*> served = [] {
    std::vector<metrics::Counter*> counters;
    for (int t = 1; t <= static_cast<int>(ServingTier::kKnobSearch); ++t) {
      counters.push_back(&metrics::GetCounter(
          std::string("fxrz_guard_served_total{tier=\"") +
              ServingTierName(static_cast<ServingTier>(t)) + "\"}",
          "Served requests by escalation-ladder tier"));
    }
    return counters;
  }();
  return *served[static_cast<size_t>(tier) - 1];
}

}  // namespace

const char* ServingTierName(ServingTier tier) {
  switch (tier) {
    case ServingTier::kRejected: return "rejected";
    case ServingTier::kConstantField: return "constant-field";
    case ServingTier::kModelEstimate: return "model-estimate";
    case ServingTier::kRefined: return "refined";
    case ServingTier::kKnobSearch: return "knob-search";
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

// Compressions the knob search may spend beyond the model tiers' own.
constexpr int kMaxSearchCompressions = 8;

// One guarded compressor run: clamp the config into the space, compress,
// measure the achieved ratio. The search's bracket keeps measurements
// without their bytes.
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

double MidConfig(const ConfigSpace& space) {
  return space.log_scale ? std::sqrt(space.min * space.max)
                         : 0.5 * (space.min + space.max);
}

// A number as an ostream prints it (6 significant digits).
std::string Describe(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}
std::string Describe(const Attempt& p) {
  return Describe(p.ratio) + " (config " + Describe(p.config) + ")";
}

// The knob search's coordinate. On a stepped knob (integer, or power-of-two
// stairs) it is the step index, so two probes one unit apart sit on
// adjacent steps with no reachable ratio between them; otherwise it is the
// knob on its search scale.
bool Stepped(const ConfigSpace& space) {
  return space.integer || space.power_of_two_steps;
}
double KnobStep(const ConfigSpace& space, double config) {
  if (space.power_of_two_steps) return std::floor(std::log2(config));
  if (space.integer) return std::round(config);
  return space.log_scale ? std::log10(config) : config;
}

// Next config inside the bracket: a secant step on (knob, log ratio), kept
// off the bracket's ends, or a bisection when the same end moved twice in
// a row. A stepped knob lands on a step strictly between the two, at the
// step's tightest config.
double SecantConfig(const ConfigSpace& space, const Attempt& below,
                    const Attempt& above, double target, bool bisect) {
  const double f_below = std::log(below.ratio / target);
  const double f_above = std::log(above.ratio / target);
  const double t =
      bisect ? 0.5 : std::clamp(f_below / (f_below - f_above), 0.1, 0.9);
  const double u_below = KnobStep(space, below.config);
  const double u_above = KnobStep(space, above.config);
  double u = u_below + t * (u_above - u_below);
  if (Stepped(space)) {
    u = std::clamp(std::round(u), std::min(u_below, u_above) + 1.0,
                   std::max(u_below, u_above) - 1.0);
  }
  if (space.power_of_two_steps) u = std::ldexp(1.0, static_cast<int>(u));
  if (!Stepped(space) && space.log_scale) u = std::pow(10.0, u);
  return std::clamp(u, space.min, space.max);
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
    StatusOr<Attempt> attempt =
        AttemptCompress(*compressor_, data, space, MidConfig(space));
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
  const bool search = options.fallback == GuardFallback::kSearch;
  // Every ratio the model tiers measure brackets the search, even when its
  // archive is dropped. When they measured nothing, the search's first
  // probe is search_start: the estimate, or the config-space midpoint.
  std::vector<Attempt> measured;
  double search_start = MidConfig(space);

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
    search_start = est.config;
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
        measured.push_back({best.config, best.ratio, {}});
        if (miss(best) <= accept_error) {
          if (verified(best, "model tier")) {
            return accept(ServingTier::kModelEstimate, std::move(best));
          }
          // Verification failed: the archive is never served; skip
          // refinement (the knob is fine, the archive is not), escalate.
          have_best = false;
          measured.clear();  // the search re-probes this config first
        } else if (search && (target_ratio > model_.max_trained_ratio() ||
                              target_ratio < model_.min_trained_ratio())) {
          // No training snapshot reached the target: refining would only
          // interpolate toward the edge, so the search tests the edge.
          note("refine tier: skipped, target outside trained ratios");
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
            const Attempt& tried = again.value();
            measured.push_back({tried.config, tried.ratio, {}});
            if (miss(tried) >= miss(best)) {
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
              measured.clear();  // the search re-probes this config first
              search_start = best.config;
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

  // Tier 3: bracketed monotone knob search (DESIGN.md, "Failure-handling
  // model" item 3): the nearest measured ratio on each side brackets the
  // target; the endpoint on its side or adjacent steps prove it unreachable.
  bool search_memory_skipped = false;
  if (!search) {
    note("search tier: fallback disabled");
  } else if (options.memory != nullptr && !memory.TryGrow(tensor_bytes)) {
    // The search keeps its best archive live beside each probe's; without
    // headroom for that the tier is skipped, flagged memory_degraded.
    search_memory_skipped = true;
    memory_degrade();
    note("search tier: skipped (memory budget exhausted)");
  } else {
    FXRZ_TRACE_SPAN("guard.search_tier");
    std::optional<Attempt> below, above;  // nearest ratio under/over target
    const std::optional<Attempt>* moved = nullptr;  // end the last probe moved
    bool bisect = false;  // ... and the one before it moved the same end
    auto bracket = [&](const Attempt& p) {
      std::optional<Attempt>& side = p.ratio < target_ratio ? below : above;
      bisect = moved == &side;
      moved = &side;
      if (!side || std::abs(p.ratio - target_ratio) <
                       std::abs(side->ratio - target_ratio)) {
        side = p;
      }
    };
    for (const Attempt& p : measured) bracket(p);
    auto out_of_range = [&](const std::string& why) -> Status {
      GMetrics().exhausted.Increment();
      GMetrics().compressions.Increment(result.compressions);
      return Status::OutOfRange("guarded compress: target ratio " +
                                Describe(target_ratio) + " " + why + " [" +
                                trail + "]");
    };
    bool start_pending = measured.empty();
    for (int spent = 0;; ++spent) {
      double config = search_start;
      if (start_pending) {
        start_pending = false;
      } else if (below && above) {
        if (Stepped(space) && std::abs(KnobStep(space, above->config) -
                                       KnobStep(space, below->config)) <= 1) {
          return out_of_range("falls between adjacent knob steps: nearest "
                              "reachable ratios " + Describe(*below) +
                              " and " + Describe(*above));
        }
        if (spent == kMaxSearchCompressions) {
          return out_of_range("not reached in " + std::to_string(spent) +
                              " search compressions: nearest ratios " +
                              Describe(*below) + " and " + Describe(*above));
        }
        config = SecantConfig(space, *below, *above, target_ratio, bisect);
      } else {
        // One side known: test the endpoint on the target's side.
        const Attempt& known = below ? *below : *above;
        config = below.has_value() == space.ratio_increases ? space.max
                                                            : space.min;
        if (KnobStep(space, known.config) == KnobStep(space, config)) {
          return out_of_range(std::string("out of reach: ") +
                              (below ? "highest" : "lowest") +
                              " reachable ratio " + Describe(known));
        }
      }
      if (spent == kMaxSearchCompressions) break;
      if (Status cp = checkpoint("guard: search tier"); !cp.ok()) {
        return expire(std::move(cp));
      }
      StatusOr<Attempt> probe =
          AttemptCompress(*compressor_, data, space, config);
      if (!probe.ok()) {
        note(note_failure("search tier", probe.status()));
        break;
      }
      ++result.compressions;
      Attempt attempt = std::move(probe).value();
      if (miss(attempt) <= accept_error) {
        if (verified(attempt, "search tier")) {
          return accept(ServingTier::kKnobSearch, std::move(attempt));
        }
        break;
      }
      bracket({attempt.config, attempt.ratio, {}});
      if (!have_best || miss(attempt) < miss(best)) {
        best = std::move(attempt);
        have_best = true;
        best_tier = ServingTier::kKnobSearch;
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
  if (search_memory_skipped) return Status::ResourceExhausted(msg.str());
  return Status::Internal(msg.str());
}

}  // namespace fxrz
