#include "nn/reshape.hpp"

#include <algorithm>
#include <stdexcept>

namespace mdgan::nn {

const Tensor& Reshape::forward_ws(const Tensor& x, bool /*train*/) {
  if (x.rank() < 1) throw std::invalid_argument("Reshape: rank >= 1 needed");
  ws_.reset();
  cached_input_shape_ = x.shape();
  if (target_.empty() || target_[0] != x.dim(0)) {
    target_.assign(1, x.dim(0));
    target_.insert(target_.end(), inner_.begin(), inner_.end());
  }
  if (shape_numel(target_) != x.numel()) {
    throw std::invalid_argument("Reshape: numel mismatch " +
                                shape_to_string(x.shape()) + " -> " +
                                shape_to_string(target_));
  }
  Tensor& y = ws_.acquire(target_);
  std::copy_n(x.data(), x.numel(), y.data());
  return y;
}

const Tensor& Reshape::backward_ws(const Tensor& grad_out) {
  if (grad_out.numel() != shape_numel(cached_input_shape_)) {
    throw std::invalid_argument("Reshape::backward: numel mismatch");
  }
  Tensor& g = ws_.acquire(cached_input_shape_);
  std::copy_n(grad_out.data(), grad_out.numel(), g.data());
  return g;
}

const Tensor& Flatten::forward_ws(const Tensor& x, bool /*train*/) {
  if (x.rank() < 2) throw std::invalid_argument("Flatten: rank >= 2 needed");
  ws_.reset();
  cached_input_shape_ = x.shape();
  Tensor& y = ws_.acquire({x.dim(0), x.numel() / x.dim(0)});
  std::copy_n(x.data(), x.numel(), y.data());
  return y;
}

const Tensor& Flatten::backward_ws(const Tensor& grad_out) {
  if (grad_out.numel() != shape_numel(cached_input_shape_)) {
    throw std::invalid_argument("Flatten::backward: numel mismatch");
  }
  Tensor& g = ws_.acquire(cached_input_shape_);
  std::copy_n(grad_out.data(), grad_out.numel(), g.data());
  return g;
}

}  // namespace mdgan::nn
