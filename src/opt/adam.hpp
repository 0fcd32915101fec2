// Adam (Kingma & Ba) — the optimizer the paper uses on both sides of the
// GAN and on the MD-GAN server (Algorithm 1 line 39). β1/β2 are exposed
// because the Fig. 6 CelebA experiment uses different settings per
// competitor (§V-B4).
#pragma once

#include "opt/optimizer.hpp"

namespace mdgan::opt {

struct AdamConfig {
  float lr = 2e-4f;
  float beta1 = 0.5f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
};

class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads,
       AdamConfig config = {});

  void step() override { step_scaled(1.f); }
  // Staleness-aware entry point for the async MD-GAN server: one Adam
  // update whose learning rate is scaled by `lr_scale` (the moments and
  // bias correction advance exactly as in a plain step, so damped and
  // undamped steps share one trajectory of optimizer state). A scale of
  // 1 is bit-identical to step().
  void step_scaled(float lr_scale);
  void reset() override;
  std::string name() const override { return "Adam"; }

  const AdamConfig& config() const { return config_; }
  std::int64_t step_count() const { return t_; }
  // Moment estimates, one per bound tensor in binding order.
  const std::vector<Tensor>& first_moments() const { return m_; }
  const std::vector<Tensor>& second_moments() const { return v_; }

 private:
  AdamConfig config_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_;  // first moment
  std::vector<Tensor> v_;  // second moment
};

}  // namespace mdgan::opt
