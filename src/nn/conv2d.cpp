#include "nn/conv2d.hpp"

#include <stdexcept>

#include "nn/nchw_reorder.hpp"
#include "tensor/tensor_ops.hpp"

namespace mdgan::nn {

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kh, std::size_t kw, std::size_t stride,
               std::size_t pad)
    : ic_(in_channels),
      oc_(out_channels),
      kh_(kh),
      kw_(kw),
      stride_(stride),
      pad_(pad),
      w_({out_channels, in_channels * kh * kw}),
      b_({out_channels}),
      dw_({out_channels, in_channels * kh * kw}),
      db_({out_channels}) {}

const Tensor& Conv2D::forward_ws(const Tensor& x, bool /*train*/) {
  if (x.rank() != 4 || x.dim(1) != ic_) {
    throw std::invalid_argument("Conv2D::forward: expected (B," +
                                std::to_string(ic_) + ",H,W), got " +
                                shape_to_string(x.shape()));
  }
  const std::size_t h = x.dim(2), w = x.dim(3);
  if (h + 2 * pad_ < kh_ || w + 2 * pad_ < kw_) {
    throw std::invalid_argument("Conv2D: kernel larger than padded input");
  }
  ws_.reset();
  cached_input_shape_ = x.shape();
  const std::size_t batch = x.dim(0);
  oh_ = (h + 2 * pad_ - kh_) / stride_ + 1;
  ow_ = (w + 2 * pad_ - kw_) / stride_ + 1;
  const std::size_t p = oh_ * ow_;
  const std::size_t patch = ic_ * kh_ * kw_;

  Tensor& cols = ws_.acquire({batch * p, patch});
  std::size_t oh = 0, ow = 0;
  im2col_into(x, kh_, kw_, stride_, pad_, oh, ow, cols);
  cached_cols_ = &cols;

  // (B*P, patch) x (patch, OC) via trans_b on (OC, patch) weights; the
  // epilogue lands each tile in NCHW order with the bias applied.
  Tensor& y_mat = ws_.acquire({batch * p, oc_});
  Tensor& y = ws_.acquire({batch, oc_, oh_, ow_});
  RowsToPlanesTile ep{y_mat.data(), y.data(), b_.data(), oc_, p};
  GemmTileHook hook{&ep, rows_to_planes_tile};
  matmul_into(y_mat, cols, w_, /*trans_a=*/false, /*trans_b=*/true, &hook);
  return y;
}

const Tensor& Conv2D::backward_ws(const Tensor& grad_out) {
  if (!cached_cols_) {
    throw std::logic_error("Conv2D::backward: no forward pass cached");
  }
  const std::size_t batch = cached_input_shape_.at(0);
  const std::size_t p = oh_ * ow_;
  if (grad_out.rank() != 4 || grad_out.dim(0) != batch ||
      grad_out.dim(1) != oc_ || grad_out.dim(2) != oh_ ||
      grad_out.dim(3) != ow_) {
    throw std::invalid_argument("Conv2D::backward: bad grad shape " +
                                shape_to_string(grad_out.shape()));
  }
  // Reorder grad NCHW -> (B*P, OC) to mirror the forward matmul layout.
  Tensor& g_mat = ws_.acquire({batch * p, oc_});
  planes_to_rows(grad_out.data(), g_mat.data(), batch, oc_, p);

  // dW (OC, patch) += G^T (OC, B*P) x cols (B*P, patch).
  matmul_acc(dw_, g_mat, *cached_cols_, /*trans_a=*/true);
  sum_rows_acc(db_, g_mat);

  // dcols = G (B*P, OC) x W (OC, patch), scattered back through col2im.
  Tensor& dcols = ws_.acquire({batch * p, ic_ * kh_ * kw_});
  matmul_into(dcols, g_mat, w_);
  Tensor& dx = ws_.acquire(cached_input_shape_);
  col2im_into(dcols, batch, ic_, cached_input_shape_.at(2),
              cached_input_shape_.at(3), kh_, kw_, stride_, pad_, oh_, ow_,
              dx);
  return dx;
}

}  // namespace mdgan::nn
