// Ordered layer container. This is the "model" type of the repo: every
// generator, discriminator and scoring classifier is a Sequential. Also
// provides the flattened parameter view used by discriminator swaps,
// FL-GAN federated averaging, and serialization onto the simulated wire.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace mdgan::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  // Move-only (layers own state); copy via clone_parameters_into or the
  // flatten/assign round trip.
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }
  void append(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  // Chains the layers' workspace paths; the returned reference lives in
  // the last (resp. first) layer's scratch.
  const Tensor& forward_ws(const Tensor& x, bool train) override;
  const Tensor& backward_ws(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  std::string name() const override { return "Sequential"; }

  // --- Flattened parameter view -------------------------------------
  // Order is layer order then per-layer param order; stable across calls
  // on same-architecture models, which is what swap/averaging rely on.
  std::size_t num_parameters();
  std::vector<float> flatten_parameters();
  void assign_parameters(const std::vector<float>& flat);
  std::vector<float> flatten_gradients();
  // Copies this model's parameters into `other` (must be same arch).
  void clone_parameters_into(Sequential& other);

  std::string summary();

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace mdgan::nn
