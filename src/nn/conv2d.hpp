// 2-D convolution over NCHW tensors, implemented as im2col + matmul on
// the blocked GEMM engine. Weights are stored as
// (out_channels, in_channels*kh*kw) so forward and all three backward
// products are plain rank-2 matmuls. The hot path runs out of a
// per-layer Workspace (zero steady-state allocations) and fuses the
// bias add + (B*P, OC) -> NCHW reorder into the GEMM tile epilogue.
#pragma once

#include "common/workspace.hpp"
#include "nn/layer.hpp"

namespace mdgan::nn {

class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kh,
         std::size_t kw, std::size_t stride = 1, std::size_t pad = 0);

  // x must be (B, in_channels, H, W); returns (B, out_channels, oh, ow).
  const Tensor& forward_ws(const Tensor& x, bool train) override;
  const Tensor& backward_ws(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  std::string name() const override { return "Conv2D"; }

  Tensor& weight() { return w_; }
  std::size_t out_channels() const { return oc_; }

 private:
  std::size_t ic_, oc_, kh_, kw_, stride_, pad_;
  Tensor w_, b_, dw_, db_;
  Workspace ws_;
  // Forward caches for backward (workspace slots, set by forward_ws).
  const Tensor* cached_cols_ = nullptr;  // (B*oh*ow, ic*kh*kw)
  Shape cached_input_shape_;
  std::size_t oh_ = 0, ow_ = 0;
};

}  // namespace mdgan::nn
