// Layer interface with explicit forward/backward.
//
// backward() must produce the gradient with respect to the layer *input*
// in addition to accumulating parameter gradients. Input gradients are
// not an implementation detail here: MD-GAN's worker-to-server feedback
// F_n is exactly dJ/dx at the discriminator input (paper §IV-B2), so the
// chain through every layer's input gradient is load-bearing and is
// covered by finite-difference tests.
//
// Each layer implements its math once, in the workspace pair
// forward_ws/backward_ws: results live in layer-owned scratch that is
// reused across steps, so a warmed-up layer allocates nothing. Hot
// callers (the server's generator, the trainers, the workers'
// discriminators) use that pair directly. forward/backward are
// non-virtual wrappers that return a copy of the ws result, for cold
// paths (scoring, evaluation, tests) that want an owning Tensor.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace mdgan::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  // train==true enables training-time behaviour (e.g. batch statistics);
  // inference uses running estimates. The returned reference is valid
  // until this layer's next forward_ws/backward_ws (or forward/backward)
  // call.
  virtual const Tensor& forward_ws(const Tensor& x, bool train) = 0;

  // grad_out is dL/d(output); returns dL/d(input) and *accumulates* into
  // parameter gradients (callers zero_grad() between steps). Must be
  // called after a matching forward (layers cache what they need). The
  // returned reference has the same lifetime as forward_ws's.
  virtual const Tensor& backward_ws(const Tensor& grad_out) = 0;

  // Owning copies of the ws results, for callers off the hot path.
  Tensor forward(const Tensor& x, bool train) { return forward_ws(x, train); }
  Tensor backward(const Tensor& grad_out) { return backward_ws(grad_out); }

  // Trainable parameters and their gradient buffers, index-aligned.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  virtual std::string name() const = 0;

  void zero_grad() {
    for (Tensor* g : grads()) g->zero();
  }

  std::size_t param_count() {
    std::size_t n = 0;
    for (Tensor* p : params()) n += p->numel();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace mdgan::nn
