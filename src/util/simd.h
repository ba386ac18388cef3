// Kernel dispatch level. Every codec kernel is scalar and lives in its
// codec's .cc file; this stub only names the one level for the benchmark
// provenance line that still stamps it.

#ifndef FXRZ_UTIL_SIMD_H_
#define FXRZ_UTIL_SIMD_H_

namespace fxrz {
namespace simd {

enum class Level : int { kScalar = 0 };

inline Level ActiveLevel() { return Level::kScalar; }

inline const char* LevelName(Level) { return "scalar"; }

}  // namespace simd
}  // namespace fxrz

#endif  // FXRZ_UTIL_SIMD_H_
