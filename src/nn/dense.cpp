#include "nn/dense.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/tensor_ops.hpp"

namespace mdgan::nn {
namespace {

struct BiasEpilogue {
  float* c;
  std::size_t ldc;
  const float* bias;
};

// Fused GEMM epilogue: adds the bias to each completed C tile while it
// is still cache-hot (replaces the separate add_row_broadcast pass).
void bias_epilogue(void* vctx, std::size_t r0, std::size_t r1,
                   std::size_t c0, std::size_t c1) {
  const auto* ctx = static_cast<const BiasEpilogue*>(vctx);
  for (std::size_t i = r0; i < r1; ++i) {
    float* __restrict row = ctx->c + i * ctx->ldc;
    const float* __restrict bias = ctx->bias;
    for (std::size_t j = c0; j < c1; ++j) row[j] += bias[j];
  }
}

}  // namespace

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      w_({in_features, out_features}),
      b_({out_features}),
      dw_({in_features, out_features}),
      db_({out_features}) {}

const Tensor& Dense::forward_ws(const Tensor& x, bool train) {
  (void)train;
  if (x.rank() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument("Dense::forward: expected (B," +
                                std::to_string(in_) + "), got " +
                                shape_to_string(x.shape()));
  }
  ws_.reset();
  Tensor& xc = ws_.acquire(x.shape());
  std::copy_n(x.data(), x.numel(), xc.data());
  cached_input_ = &xc;

  Tensor& y = ws_.acquire({x.dim(0), out_});
  BiasEpilogue ep{y.data(), out_, b_.data()};
  GemmTileHook hook{&ep, bias_epilogue};
  matmul_into(y, xc, w_, /*trans_a=*/false, /*trans_b=*/false, &hook);
  return y;
}

const Tensor& Dense::backward_ws(const Tensor& grad_out) {
  if (!cached_input_) {
    throw std::logic_error("Dense::backward: no forward pass cached");
  }
  if (grad_out.rank() != 2 || grad_out.dim(1) != out_ ||
      grad_out.dim(0) != cached_input_->dim(0)) {
    throw std::invalid_argument("Dense::backward: bad grad shape " +
                                shape_to_string(grad_out.shape()));
  }
  matmul_acc(dw_, *cached_input_, grad_out, /*trans_a=*/true);
  sum_rows_acc(db_, grad_out);
  Tensor& dx = ws_.acquire({grad_out.dim(0), in_});
  matmul_into(dx, grad_out, w_, /*trans_a=*/false, /*trans_b=*/true);
  return dx;
}

}  // namespace mdgan::nn
