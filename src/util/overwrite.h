// Storage for buffers that the pass filling them writes first.
//
// A decoder's output (a tensor, a code array, an unpacked body) is written
// element by element by a pass that often runs on every core. Zeroing it
// first would touch every page on the calling thread, serially, only for
// the pass to write each element again. OverwriteVector<T> is a
// std::vector whose resize() leaves new trivially-constructible elements
// unset, so the filling pass is the first to touch them. Everything else
// (assign, insert, copy) behaves as in std::vector.
//
// A buffer of this type must be fully written before anyone reads it, and
// a failed decode must not hand it out. In sanitizer builds
// (FXRZ_POISON_OVERWRITE, set by the FXRZ_SANITIZE CMake option) every
// allocation is filled with 0xFF bytes -- a NaN for float and double -- so
// an element a decoder skips changes the decoded result instead of
// silently reading zero.

#ifndef FXRZ_UTIL_OVERWRITE_H_
#define FXRZ_UTIL_OVERWRITE_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace fxrz {

#ifdef FXRZ_POISON_OVERWRITE
inline constexpr bool kPoisonOverwrite = true;
#else
inline constexpr bool kPoisonOverwrite = false;
#endif

// Default-initializes where std::allocator value-initializes.
template <typename T>
struct OverwriteAllocator {
  using value_type = T;

  OverwriteAllocator() = default;
  template <typename U>
  OverwriteAllocator(const OverwriteAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    T* p = std::allocator<T>().allocate(n);
    if constexpr (kPoisonOverwrite && std::is_trivially_copyable_v<T>) {
      std::memset(static_cast<void*>(p), 0xFF, n * sizeof(T));
    }
    return p;
  }
  void deallocate(T* p, size_t n) noexcept {
    std::allocator<T>().deallocate(p, n);
  }

  // The one change from std::allocator: no `()` after the type. With
  // arguments, std::allocator_traits constructs as std::allocator does.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const OverwriteAllocator&,
                         const OverwriteAllocator&) {
    return true;
  }
};

template <typename T>
using OverwriteVector = std::vector<T, OverwriteAllocator<T>>;

}  // namespace fxrz

#endif  // FXRZ_UTIL_OVERWRITE_H_
