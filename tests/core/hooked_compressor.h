// Test decorator for driving the guard ladder deterministically: it records
// every config the ladder compresses at and runs a hook before each run.
// The hook may cancel a request's token (the ladder's checkpoint before its
// next compression then fires), block, or return a non-OK Status that the
// run reports instead of compressing.
//
// The decorator passes through Compressor::Compress twice (its own entry
// and its base's), so codec counters and fault-site hit counts double;
// tests that assert on those use the plain codec.

#ifndef FXRZ_TESTS_CORE_HOOKED_COMPRESSOR_H_
#define FXRZ_TESTS_CORE_HOOKED_COMPRESSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/util/status.h"

namespace fxrz {

class HookedCompressor : public Compressor {
 public:
  // `run` counts compressions since the hook was set, from 0.
  using Hook = std::function<Status(int run)>;

  explicit HookedCompressor(std::unique_ptr<Compressor> base)
      : base_(std::move(base)) {}

  std::string name() const override { return base_->name(); }
  ConfigSpace config_space(const Tensor& data) const override {
    return base_->config_space(data);
  }

  // Arms the hook and restarts the run count and the config record. Set
  // it before the request starts, never while one is in flight.
  void set_hook(Hook hook) {
    hook_ = std::move(hook);
    configs_.clear();
  }
  // Configs compressed at since set_hook, in order.
  const std::vector<double>& configs() const { return configs_; }

 private:
  StatusOr<std::vector<uint8_t>> DoCompress(const Tensor& data,
                                            double config) const override {
    if (hook_) {
      configs_.push_back(config);
      FXRZ_RETURN_IF_ERROR(hook_(static_cast<int>(configs_.size()) - 1));
    }
    return base_->Compress(data, config);
  }
  Status DoDecompress(const uint8_t* data, size_t size,
                      Tensor* out) const override {
    return base_->Decompress(data, size, out);
  }

  std::unique_ptr<Compressor> base_;
  Hook hook_;
  mutable std::vector<double> configs_;
};

}  // namespace fxrz

#endif  // FXRZ_TESTS_CORE_HOOKED_COMPRESSOR_H_
