#include "nn/minibatch_discrimination.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/tensor_ops.hpp"

namespace mdgan::nn {

MinibatchDiscrimination::MinibatchDiscrimination(std::size_t in_features,
                                                 std::size_t num_kernels,
                                                 std::size_t kernel_dim)
    : in_(in_features),
      num_kernels_(num_kernels),
      kernel_dim_(kernel_dim),
      t_({in_features, num_kernels * kernel_dim}),
      dt_({in_features, num_kernels * kernel_dim}) {}

const Tensor& MinibatchDiscrimination::forward_ws(const Tensor& x,
                                                  bool /*train*/) {
  if (x.rank() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument(
        "MinibatchDiscrimination::forward: expected (B," +
        std::to_string(in_) + "), got " + shape_to_string(x.shape()));
  }
  ws_.reset();
  Tensor& xc = ws_.acquire(x.shape());
  std::copy_n(x.data(), x.numel(), xc.data());
  cached_input_ = &xc;

  Tensor& m_t = ws_.acquire({x.dim(0), num_kernels_ * kernel_dim_});
  matmul_into(m_t, xc, t_);  // (B, Bd*Cd)
  cached_m_ = &m_t;

  const std::size_t batch = x.dim(0);
  Tensor& y = ws_.acquire({batch, in_ + num_kernels_});
  // Copy-through of the input features.
  const std::size_t out_w = in_ + num_kernels_;
  for (std::size_t i = 0; i < batch; ++i) {
    std::copy_n(xc.data() + i * in_, in_, y.data() + i * out_w);
  }
  const float* m = m_t.data();
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t b = 0; b < num_kernels_; ++b) {
      float o = 0.f;
      for (std::size_t j = 0; j < batch; ++j) {
        if (j == i) continue;
        float l1 = 0.f;
        const float* mi = m + i * num_kernels_ * kernel_dim_ + b * kernel_dim_;
        const float* mj = m + j * num_kernels_ * kernel_dim_ + b * kernel_dim_;
        for (std::size_t c = 0; c < kernel_dim_; ++c) {
          l1 += std::abs(mi[c] - mj[c]);
        }
        o += std::exp(-l1);
      }
      y.data()[i * out_w + in_ + b] = o;
    }
  }
  return y;
}

const Tensor& MinibatchDiscrimination::backward_ws(const Tensor& grad_out) {
  if (!cached_input_ || !cached_m_) {
    throw std::logic_error(
        "MinibatchDiscrimination::backward: no forward pass cached");
  }
  const std::size_t batch = cached_input_->dim(0);
  if (grad_out.rank() != 2 || grad_out.dim(0) != batch ||
      grad_out.dim(1) != in_ + num_kernels_) {
    throw std::invalid_argument(
        "MinibatchDiscrimination::backward: bad grad shape " +
        shape_to_string(grad_out.shape()));
  }
  const float* m = cached_m_->data();

  // dL/dM. For each unordered pair (i, j) and kernel b the term
  // exp(-||M_ib - M_jb||_1) contributes to both o_ib and o_jb, and the
  // sign pattern of (M_ibc - M_jbc) routes the gradient.
  Tensor& dm = ws_.acquire({batch, num_kernels_ * kernel_dim_});
  dm.zero();
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = i + 1; j < batch; ++j) {
      for (std::size_t b = 0; b < num_kernels_; ++b) {
        const float* mi = m + i * num_kernels_ * kernel_dim_ + b * kernel_dim_;
        const float* mj = m + j * num_kernels_ * kernel_dim_ + b * kernel_dim_;
        float l1 = 0.f;
        for (std::size_t c = 0; c < kernel_dim_; ++c) {
          l1 += std::abs(mi[c] - mj[c]);
        }
        const float e = std::exp(-l1);
        const float g = grad_out.at(i, in_ + b) + grad_out.at(j, in_ + b);
        const float coef = -e * g;
        float* dmi = dm.data() + i * num_kernels_ * kernel_dim_ +
                     b * kernel_dim_;
        float* dmj = dm.data() + j * num_kernels_ * kernel_dim_ +
                     b * kernel_dim_;
        for (std::size_t c = 0; c < kernel_dim_; ++c) {
          const float s = mi[c] > mj[c] ? 1.f : (mi[c] < mj[c] ? -1.f : 0.f);
          dmi[c] += coef * s;
          dmj[c] -= coef * s;
        }
      }
    }
  }

  // dT += x^T dM ; dx = dM T^T + pass-through grad on the copied features.
  matmul_acc(dt_, *cached_input_, dm, /*trans_a=*/true);
  Tensor& dx = ws_.acquire({batch, in_});
  matmul_into(dx, dm, t_, /*trans_a=*/false, /*trans_b=*/true);
  const std::size_t out_w = in_ + num_kernels_;
  for (std::size_t i = 0; i < batch; ++i) {
    float* __restrict drow = dx.data() + i * in_;
    const float* __restrict grow = grad_out.data() + i * out_w;
    for (std::size_t f = 0; f < in_; ++f) drow[f] += grow[f];
  }
  return dx;
}

}  // namespace mdgan::nn
