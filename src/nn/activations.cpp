#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace mdgan::nn {
namespace {

void check_backward_shape(const Tensor* cached, const Tensor& grad,
                          const char* who) {
  if (!cached) {
    throw std::logic_error(std::string(who) + "::backward: no forward");
  }
  if (cached->shape() != grad.shape()) {
    throw std::invalid_argument(std::string(who) +
                                "::backward: grad shape mismatch");
  }
}

}  // namespace

const Tensor& ReLU::forward_ws(const Tensor& x, bool /*train*/) {
  ws_.reset();
  Tensor& y = ws_.acquire(x.shape());
  const float* __restrict p = x.data();
  float* __restrict py = y.data();
  parallel_for(x.numel(), kParallelGrainElems, [&](std::size_t e0, std::size_t e1) {
    for (std::size_t i = e0; i < e1; ++i) py[i] = p[i] > 0.f ? p[i] : 0.f;
  });
  cached_output_ = &y;
  return y;
}

const Tensor& ReLU::backward_ws(const Tensor& grad_out) {
  check_backward_shape(cached_output_, grad_out, "ReLU");
  // y > 0 iff x > 0, so the output is its own mask. The gradient is
  // loaded unconditionally so the select compiles to a vector blend
  // rather than a mispredicting branch; a select (not a multiply by the
  // mask) still yields exactly 0 for a NaN or inf gradient where y <= 0.
  Tensor& g = ws_.acquire(grad_out.shape());
  const float* __restrict py = cached_output_->data();
  const float* __restrict pg = grad_out.data();
  float* __restrict pd = g.data();
  parallel_for(g.numel(), kParallelGrainElems, [&](std::size_t e0, std::size_t e1) {
    for (std::size_t i = e0; i < e1; ++i) {
      const float gi = pg[i];
      pd[i] = py[i] > 0.f ? gi : 0.f;
    }
  });
  return g;
}

LeakyReLU::LeakyReLU(float alpha) : alpha_(alpha) {
  if (alpha < 0.f) {
    throw std::invalid_argument("LeakyReLU: alpha must be >= 0");
  }
}

const Tensor& LeakyReLU::forward_ws(const Tensor& x, bool /*train*/) {
  ws_.reset();
  Tensor& y = ws_.acquire(x.shape());
  // alpha is copied into a local inside the chunk (read through the
  // capture, it could alias the output and is reloaded per element) and
  // both select operands are computed unconditionally, so the select
  // compiles to a vector blend instead of a sign branch. The blend also
  // needs -fno-trapping-math on this file (CMakeLists.txt).
  const float* __restrict p = x.data();
  float* __restrict py = y.data();
  parallel_for(x.numel(), kParallelGrainElems, [&](std::size_t e0, std::size_t e1) {
    const float a = alpha_;
    for (std::size_t i = e0; i < e1; ++i) {
      const float xi = p[i];
      const float ax = a * xi;
      py[i] = xi > 0.f ? xi : ax;
    }
  });
  cached_output_ = &y;
  return y;
}

const Tensor& LeakyReLU::backward_ws(const Tensor& grad_out) {
  check_backward_shape(cached_output_, grad_out, "LeakyReLU");
  // alpha >= 0 keeps sign(y) == sign(x), so the output is its own mask
  // (x <= 0 gives y = alpha*x <= 0 either way). Branch-free like the
  // forward; alpha * g is formed everywhere but only selected where
  // y <= 0, so a zero alpha still gives 0 * inf = NaN there, as a
  // branch would.
  Tensor& g = ws_.acquire(grad_out.shape());
  const float* __restrict py = cached_output_->data();
  const float* __restrict pg = grad_out.data();
  float* __restrict pd = g.data();
  parallel_for(g.numel(), kParallelGrainElems, [&](std::size_t e0, std::size_t e1) {
    const float a = alpha_;
    for (std::size_t i = e0; i < e1; ++i) {
      const float gi = pg[i];
      const float ag = a * gi;
      pd[i] = py[i] > 0.f ? gi : ag;
    }
  });
  return g;
}

const Tensor& Tanh::forward_ws(const Tensor& x, bool /*train*/) {
  ws_.reset();
  Tensor& y = ws_.acquire(x.shape());
  const float* __restrict p = x.data();
  float* __restrict py = y.data();
  // tanh is expensive; weigh it into the grain like softmax does.
  parallel_for(x.numel(), kParallelGrainElems / 16,
               [&](std::size_t e0, std::size_t e1) {
                 for (std::size_t i = e0; i < e1; ++i) {
                   py[i] = std::tanh(p[i]);
                 }
               });
  cached_output_ = &y;
  return y;
}

const Tensor& Tanh::backward_ws(const Tensor& grad_out) {
  check_backward_shape(cached_output_, grad_out, "Tanh");
  Tensor& g = ws_.acquire(grad_out.shape());
  const float* __restrict py = cached_output_->data();
  const float* __restrict pg = grad_out.data();
  float* __restrict pd = g.data();
  parallel_for(g.numel(), kParallelGrainElems, [&](std::size_t e0, std::size_t e1) {
    for (std::size_t i = e0; i < e1; ++i) {
      const float t = py[i];
      pd[i] = pg[i] * (1.f - t * t);
    }
  });
  return g;
}

const Tensor& Sigmoid::forward_ws(const Tensor& x, bool /*train*/) {
  ws_.reset();
  Tensor& y = ws_.acquire(x.shape());
  const float* __restrict p = x.data();
  float* __restrict py = y.data();
  parallel_for(x.numel(), kParallelGrainElems / 16,
               [&](std::size_t e0, std::size_t e1) {
                 for (std::size_t i = e0; i < e1; ++i) {
                   py[i] = 1.f / (1.f + std::exp(-p[i]));
                 }
               });
  cached_output_ = &y;
  return y;
}

const Tensor& Sigmoid::backward_ws(const Tensor& grad_out) {
  check_backward_shape(cached_output_, grad_out, "Sigmoid");
  Tensor& g = ws_.acquire(grad_out.shape());
  const float* __restrict py = cached_output_->data();
  const float* __restrict pg = grad_out.data();
  float* __restrict pd = g.data();
  parallel_for(g.numel(), kParallelGrainElems, [&](std::size_t e0, std::size_t e1) {
    for (std::size_t i = e0; i < e1; ++i) {
      const float s = py[i];
      pd[i] = pg[i] * s * (1.f - s);
    }
  });
  return g;
}

}  // namespace mdgan::nn
