// Batch normalization over the channel axis.
// Rank-2 input (B, F): each feature is a channel (statistics over B).
// Rank-4 input (B, C, H, W): statistics over B*H*W per channel, the
// standard DCGAN placement. Running estimates are used at inference.
// Outputs, the normalized-input cache and the per-channel statistics
// live in a per-layer Workspace, so a warmed-up step allocates nothing.
// Statistics accumulate in double in a fixed loop order.
#pragma once

#include "common/workspace.hpp"
#include "nn/layer.hpp"

namespace mdgan::nn {

class BatchNorm : public Layer {
 public:
  explicit BatchNorm(std::size_t channels, float momentum = 0.9f,
                     float eps = 1e-5f);

  const Tensor& forward_ws(const Tensor& x, bool train) override;
  const Tensor& backward_ws(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override { return {&dgamma_, &dbeta_}; }
  std::string name() const override { return "BatchNorm"; }

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  // Decomposes shape into (outer=batch, C, inner=spatial) around the
  // channel axis; throws on unsupported ranks.
  void split_dims(const Shape& s, std::size_t& outer, std::size_t& inner,
                  const char* who) const;

  std::size_t channels_;
  float momentum_, eps_;
  Tensor gamma_, beta_, dgamma_, dbeta_;
  Tensor running_mean_, running_var_;
  Workspace ws_;
  // Forward caches (workspace slots, set by forward_ws).
  const Tensor* cached_xhat_ = nullptr;
  const Tensor* cached_inv_std_ = nullptr;  // per-channel 1/sqrt(var+eps)
  Shape cached_shape_;
};

}  // namespace mdgan::nn
