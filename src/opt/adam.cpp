#include "opt/adam.hpp"

#include <cmath>

namespace mdgan::opt {

Adam::Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads,
           AdamConfig config)
    : Optimizer(std::move(params), std::move(grads)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Tensor* p : params_) {
    m_.emplace_back(p->shape());
    v_.emplace_back(p->shape());
  }
}

void Adam::step_scaled(float lr_scale) {
  ++t_;
  // Everything the element loop reads besides the four arrays is a
  // local, and the arrays are __restrict, so nothing in the loop can
  // alias a store and it vectorizes. This file is compiled with
  // -fno-math-errno (CMakeLists.txt): without it std::sqrt keeps a
  // scalar errno side path and the loop stays scalar. -ffp-contract=off
  // there keeps native builds from fusing FMAs. The float
  // operations and their order are the textbook scalar ones; IEEE
  // div and sqrt are correctly rounded, so every SIMD lane produces
  // the bits the scalar loop would.
  const float b1 = config_.beta1, b2 = config_.beta2;
  const float c1 = 1.f - b1, c2 = 1.f - b2;
  const float bias1 = 1.f - std::pow(b1, static_cast<float>(t_));
  const float bias2 = 1.f - std::pow(b2, static_cast<float>(t_));
  const float lr = config_.lr * lr_scale;
  const float eps = config_.eps;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    float* __restrict p = params_[i]->data();
    const float* __restrict g = grads_[i]->data();
    float* __restrict m = m_[i].data();
    float* __restrict v = v_[i].data();
    const std::size_t n = params_[i]->numel();
    for (std::size_t j = 0; j < n; ++j) {
      const float gj = g[j];
      const float mj = b1 * m[j] + c1 * gj;
      const float vj = b2 * v[j] + c2 * gj * gj;
      m[j] = mj;
      v[j] = vj;
      const float mhat = mj / bias1;
      const float vhat = vj / bias2;
      p[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

void Adam::reset() {
  t_ = 0;
  for (Tensor& m : m_) m.zero();
  for (Tensor& v : v_) v.zero();
}

}  // namespace mdgan::opt
