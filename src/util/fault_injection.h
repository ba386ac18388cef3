// Deterministic fault injection for robustness testing.
//
// The serving layer routes every fallible external step (compressor runs,
// model queries, archive decodes, request dispatch) through a named fault
// *site*. A test arms a site in one of two modes:
//
//   Arm(site, skip, count)            deterministic nth-hit schedule: the
//                                     next `skip` hits succeed, the
//                                     following `count` hits fail.
//   FailWithProbability(site, p, s)   seeded storm mode: every hit fails
//                                     independently with probability p.
//
// and the instrumented code observes the failure exactly where a real one
// would surface.
//
// Determinism contract. Hits at a site are serialized under a lock and
// numbered 0, 1, 2, ... since the last ResetAll/(re)arm. In schedule mode
// the outcome of hit k is a pure function of (skip, count, k). In
// probabilistic mode the outcome of hit k is the pure function
// `splitmix64(seed + k) < p * 2^64` -- no mutable RNG state -- so a given
// (p, seed) always produces the same fail/succeed sequence along the hit
// index. Single-threaded tests therefore see exactly the failures they
// armed; multi-threaded storms see a fixed outcome *sequence* whose
// assignment to requests follows arrival order at the site (the chaos test
// asserts aggregate accounting, never which thread drew which outcome).
//
// The facility is compiled in only under -DFXRZ_FAULT_INJECT=ON (which
// defines FXRZ_FAULT_INJECT); otherwise Hit() is a constant-false inline
// and the instrumented branches fold away entirely.

#ifndef FXRZ_UTIL_FAULT_INJECTION_H_
#define FXRZ_UTIL_FAULT_INJECTION_H_

#include <cstdint>

namespace fxrz {
namespace fault {

// Instrumented failure sites.
enum class Site : int {
  // Compressor::Compress / Decompress: every codec run, including FRaZ
  // probes, training, stores and decorators' base runs (one per slab).
  kCompressorCompress = 0,
  kCompressorDecompress,
  kModelQuery,              // FxrzModel::EstimateWithConfidence
  kArchiveDecode,           // compressor_internal::ParseHeader
  kBitrot,                  // Crc32cMatches: checksum verification mismatch
  kTornWrite,               // AtomicWriteFile: crash before rename
  kServeDispatch,           // FxrzServer: worker fails a request pre-backend
};
inline constexpr int kNumSites = 7;

const char* SiteName(Site site);

// True when the facility is compiled in.
constexpr bool Enabled() {
#ifdef FXRZ_FAULT_INJECT
  return true;
#else
  return false;
#endif
}

#ifdef FXRZ_FAULT_INJECT
// Arms `site`: after `skip` more successful hits, the next `count` hits
// fail. Re-arming replaces any previous schedule (including a
// probabilistic one) and restarts the site's hit numbering. skip >= 0,
// count >= 0.
void Arm(Site site, int skip, int count);

// Arms `site` probabilistically: each hit fails independently with
// probability `p` in [0, 1], decided by the deterministic per-hit hash
// documented in the header comment. Replaces any previous schedule and
// restarts the site's hit numbering; p <= 0 disarms the site.
void FailWithProbability(Site site, double p, uint64_t seed);

// Disarms every site and zeroes all hit counters.
void ResetAll();

// Hits (armed or not) observed at `site` since the last ResetAll. This
// counts every *visit* to the site, successful or failing; a test that
// wants to know how many faults actually fired must use TriggeredCount.
uint64_t HitCount(Site site);

// Hits at `site` that actually failed (Hit returned true) since the last
// ResetAll. TriggeredCount(s) <= HitCount(s) always.
uint64_t TriggeredCount(Site site);

// Consumes one hit at `site`; returns true when the hit must fail.
bool Hit(Site site);
#else
inline void Arm(Site /*site*/, int /*skip*/, int /*count*/) {}
inline void FailWithProbability(Site /*site*/, double /*p*/,
                                uint64_t /*seed*/) {}
inline void ResetAll() {}
inline uint64_t HitCount(Site /*site*/) { return 0; }
inline uint64_t TriggeredCount(Site /*site*/) { return 0; }
inline bool Hit(Site /*site*/) { return false; }
#endif

}  // namespace fault
}  // namespace fxrz

#endif  // FXRZ_UTIL_FAULT_INJECTION_H_
