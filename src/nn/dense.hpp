// Fully connected layer: y = x W + b, x is (B, in), W is (in, out).
// Hot path (forward_ws/backward_ws) runs out of a per-layer Workspace —
// zero heap allocations once shapes have stabilized — with the bias add
// fused into the GEMM epilogue.
#pragma once

#include "common/workspace.hpp"
#include "nn/layer.hpp"

namespace mdgan::nn {

class Dense : public Layer {
 public:
  // Weights are left zero-initialized; use nn::init helpers (He/Xavier)
  // right after construction — builders do this so initialization policy
  // lives in one place.
  Dense(std::size_t in_features, std::size_t out_features);

  const Tensor& forward_ws(const Tensor& x, bool train) override;
  const Tensor& backward_ws(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  std::string name() const override { return "Dense"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 private:
  std::size_t in_, out_;
  Tensor w_, b_, dw_, db_;
  Workspace ws_;
  const Tensor* cached_input_ = nullptr;  // ws copy, set by forward_ws
};

}  // namespace mdgan::nn
