#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace mdgan::nn {

BatchNorm::BatchNorm(std::size_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_({channels}, 1.f),
      beta_({channels}),
      dgamma_({channels}),
      dbeta_({channels}),
      running_mean_({channels}),
      running_var_({channels}, 1.f) {}

void BatchNorm::split_dims(const Shape& s, std::size_t& outer,
                           std::size_t& inner, const char* who) const {
  if (s.size() == 2 && s[1] == channels_) {
    outer = s[0];
    inner = 1;
  } else if (s.size() == 4 && s[1] == channels_) {
    outer = s[0];
    inner = s[2] * s[3];
  } else {
    throw std::invalid_argument(std::string(who) +
                                ": expected (B,C) or (B,C,H,W) with C=" +
                                std::to_string(channels_) + ", got " +
                                shape_to_string(s));
  }
}

const Tensor& BatchNorm::forward_ws(const Tensor& x, bool train) {
  std::size_t outer, inner;
  split_dims(x.shape(), outer, inner, "BatchNorm::forward");
  ws_.reset();
  cached_shape_ = x.shape();
  const std::size_t n_per_ch = outer * inner;
  const float* px = x.data();

  // Same slots in both modes, so eval and train steps reuse storage.
  Tensor& y = ws_.acquire(x.shape());
  Tensor& xhat = ws_.acquire(x.shape());
  Tensor& inv_std = ws_.acquire({channels_});
  Tensor& batch_mean = ws_.acquire({channels_});
  Tensor& batch_var = ws_.acquire({channels_});
  // Inference reads the running estimates in place.
  const Tensor& mean = train ? batch_mean : running_mean_;
  const Tensor& var = train ? batch_var : running_var_;
  if (train) {
    for (std::size_t c = 0; c < channels_; ++c) {
      double acc = 0.0;
      for (std::size_t o = 0; o < outer; ++o) {
        const float* p = px + (o * channels_ + c) * inner;
        for (std::size_t i = 0; i < inner; ++i) acc += p[i];
      }
      batch_mean[c] = static_cast<float>(acc / n_per_ch);
    }
    for (std::size_t c = 0; c < channels_; ++c) {
      double acc = 0.0;
      for (std::size_t o = 0; o < outer; ++o) {
        const float* p = px + (o * channels_ + c) * inner;
        for (std::size_t i = 0; i < inner; ++i) {
          const double d = p[i] - batch_mean[c];
          acc += d * d;
        }
      }
      batch_var[c] = static_cast<float>(acc / n_per_ch);
    }
    for (std::size_t c = 0; c < channels_; ++c) {
      running_mean_[c] =
          momentum_ * running_mean_[c] + (1.f - momentum_) * batch_mean[c];
      running_var_[c] =
          momentum_ * running_var_[c] + (1.f - momentum_) * batch_var[c];
    }
  }

  for (std::size_t c = 0; c < channels_; ++c) {
    inv_std[c] = 1.f / std::sqrt(var[c] + eps_);
  }
  cached_inv_std_ = &inv_std;
  cached_xhat_ = &xhat;

  float* py = y.data();
  float* ph = xhat.data();
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float m = mean[c], is = inv_std[c];
      const float g = gamma_[c], bt = beta_[c];
      const std::size_t base = (o * channels_ + c) * inner;
      for (std::size_t i = 0; i < inner; ++i) {
        const float xh = (px[base + i] - m) * is;
        ph[base + i] = xh;
        py[base + i] = g * xh + bt;
      }
    }
  }
  return y;
}

const Tensor& BatchNorm::backward_ws(const Tensor& grad_out) {
  if (!cached_xhat_) {
    throw std::logic_error("BatchNorm::backward: no forward pass cached");
  }
  if (grad_out.shape() != cached_shape_) {
    throw std::invalid_argument("BatchNorm::backward: grad shape mismatch");
  }
  std::size_t outer, inner;
  split_dims(cached_shape_, outer, inner, "BatchNorm::backward");
  const std::size_t n_per_ch = outer * inner;
  const float* pg = grad_out.data();
  const float* ph = cached_xhat_->data();
  const float* pis = cached_inv_std_->data();

  // Per-channel reductions: sum(g), sum(g*xhat).
  Tensor& sum_g = ws_.acquire({channels_});
  Tensor& sum_gx = ws_.acquire({channels_});
  sum_g.zero();
  sum_gx.zero();
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const std::size_t base = (o * channels_ + c) * inner;
      double sg = 0.0, sgx = 0.0;
      for (std::size_t i = 0; i < inner; ++i) {
        sg += pg[base + i];
        sgx += static_cast<double>(pg[base + i]) * ph[base + i];
      }
      sum_g[c] += static_cast<float>(sg);
      sum_gx[c] += static_cast<float>(sgx);
    }
  }
  dbeta_ += sum_g;
  dgamma_ += sum_gx;

  // dx = gamma * inv_std / n * (n*g - sum(g) - xhat * sum(g*xhat))
  // (training-mode batch statistics are part of the graph).
  Tensor& dx = ws_.acquire(cached_shape_);
  float* pd = dx.data();
  const float inv_n = 1.f / static_cast<float>(n_per_ch);
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float coef = gamma_[c] * pis[c] * inv_n;
      const float sg = sum_g[c], sgx = sum_gx[c];
      const std::size_t base = (o * channels_ + c) * inner;
      for (std::size_t i = 0; i < inner; ++i) {
        pd[base + i] = coef * (static_cast<float>(n_per_ch) * pg[base + i] -
                               sg - ph[base + i] * sgx);
      }
    }
  }
  return dx;
}

}  // namespace mdgan::nn
