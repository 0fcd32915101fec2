// Minibatch discrimination (Salimans et al., "Improved Techniques for
// Training GANs") — the layer the paper's CNN discriminators include to
// fight mode collapse. For input features x_i (B, A) and a learned tensor
// T (A, Bd*Cd):
//   M_i = x_i T, reshaped (Bd, Cd)
//   o(x_i)_b = sum_{j != i} exp(-||M_{i,b} - M_{j,b}||_1)
// Output is the concatenation [x, o] of shape (B, A + Bd).
//
// The O(B^2 Bd Cd) backward is written out explicitly (no autograd here),
// and is covered by finite-difference tests for both dT and dx.
#pragma once

#include "common/workspace.hpp"
#include "nn/layer.hpp"

namespace mdgan::nn {

class MinibatchDiscrimination : public Layer {
 public:
  MinibatchDiscrimination(std::size_t in_features, std::size_t num_kernels,
                          std::size_t kernel_dim);

  const Tensor& forward_ws(const Tensor& x, bool train) override;
  const Tensor& backward_ws(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&t_}; }
  std::vector<Tensor*> grads() override { return {&dt_}; }
  std::string name() const override { return "MinibatchDiscrimination"; }

  std::size_t out_features() const { return in_ + num_kernels_; }
  Tensor& kernel() { return t_; }

 private:
  std::size_t in_, num_kernels_, kernel_dim_;
  Tensor t_, dt_;  // (in, num_kernels*kernel_dim)
  Workspace ws_;
  const Tensor* cached_input_ = nullptr;  // (B, in) ws copy
  const Tensor* cached_m_ = nullptr;      // (B, num_kernels*kernel_dim)
};

}  // namespace mdgan::nn
