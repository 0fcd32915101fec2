#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "opt/adam.hpp"
#include "opt/sgd.hpp"

namespace mdgan::opt {
namespace {

TEST(Sgd, PlainStepIsAxpy) {
  Tensor p({2}, std::vector<float>{1.f, 2.f});
  Tensor g({2}, std::vector<float>{0.5f, -1.f});
  Sgd sgd({&p}, {&g}, /*lr=*/0.1f);
  sgd.step();
  EXPECT_FLOAT_EQ(p[0], 0.95f);
  EXPECT_FLOAT_EQ(p[1], 2.1f);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  Tensor p({1}, std::vector<float>{0.f});
  Tensor g({1}, std::vector<float>{1.f});
  Sgd sgd({&p}, {&g}, 1.f, /*momentum=*/0.5f);
  sgd.step();  // v = 1,   p = -1
  EXPECT_FLOAT_EQ(p[0], -1.f);
  sgd.step();  // v = 1.5, p = -2.5
  EXPECT_FLOAT_EQ(p[0], -2.5f);
  sgd.reset();
  sgd.step();  // velocity back to 1
  EXPECT_FLOAT_EQ(p[0], -3.5f);
}

TEST(Adam, FirstStepMatchesHandComputation) {
  // With bias correction, the first Adam step is -lr * g/(|g| + eps)
  // = -lr * sign(g) for scalar g.
  Tensor p({2}, std::vector<float>{1.f, -1.f});
  Tensor g({2}, std::vector<float>{0.3f, -0.7f});
  AdamConfig cfg{0.01f, 0.9f, 0.999f, 1e-8f};
  Adam adam({&p}, {&g}, cfg);
  adam.step();
  EXPECT_NEAR(p[0], 1.f - 0.01f, 1e-5f);
  EXPECT_NEAR(p[1], -1.f + 0.01f, 1e-5f);
}

TEST(Adam, SecondStepMatchesReference) {
  // Reference values computed from the Adam update equations.
  Tensor p({1}, std::vector<float>{0.f});
  Tensor g({1}, std::vector<float>{1.f});
  AdamConfig cfg{0.1f, 0.9f, 0.999f, 1e-8f};
  Adam adam({&p}, {&g}, cfg);
  adam.step();
  // t=1: m=0.1, v=0.001, mhat=1, vhat=1 -> p -= 0.1 * 1/(1+eps).
  EXPECT_NEAR(p[0], -0.1f, 1e-6f);
  adam.step();
  // t=2: m=0.19, v=0.001999; mhat=0.19/0.19=1,
  // vhat=0.001999/0.001999=1 -> another -0.1.
  EXPECT_NEAR(p[0], -0.2f, 1e-5f);
}

TEST(Adam, RespectsBetaConfig) {
  // beta1=0 turns Adam into (bias-corrected) RMSProp-like updates:
  // m = g exactly.
  Tensor p({1}, std::vector<float>{0.f});
  Tensor g({1}, std::vector<float>{2.f});
  Adam adam({&p}, {&g}, {1.f, 0.0f, 0.9f, 1e-8f});
  adam.step();
  // m=2, v=0.4; mhat=2, vhat=4 -> step = -1 * 2/2 = -1.
  EXPECT_NEAR(p[0], -1.f, 1e-5f);
}

TEST(Adam, ResetClearsMomentsAndTime) {
  Tensor p({1}, std::vector<float>{0.f});
  Tensor g({1}, std::vector<float>{1.f});
  Adam adam({&p}, {&g});
  adam.step();
  adam.step();
  EXPECT_EQ(adam.step_count(), 2);
  const float after_two = p[0];
  adam.reset();
  EXPECT_EQ(adam.step_count(), 0);
  adam.step();
  // Same gradient from reset state: same step size as the very first.
  EXPECT_NEAR(p[0] - after_two, after_two - 0.f + (after_two - p[0]) * 0,
              1e-3f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(x) = (x - 3)^2 by feeding grad = 2(x-3).
  Tensor p({1}, std::vector<float>{-5.f});
  Tensor g({1});
  Adam adam({&p}, {&g}, {0.1f, 0.9f, 0.999f, 1e-8f});
  for (int i = 0; i < 500; ++i) {
    g[0] = 2.f * (p[0] - 3.f);
    adam.step();
  }
  EXPECT_NEAR(p[0], 3.f, 1e-2f);
}

// The scalar Adam loop as it stood before the step was vectorized: the
// reference the vector loop must match bit for bit. Compiled with the
// test's default flags (errno-setting sqrt, no __restrict), so it stays
// scalar.
struct ScalarAdamRef {
  AdamConfig config;
  std::int64_t t = 0;
  std::vector<std::vector<float>> m, v;

  void step_scaled(std::vector<std::vector<float>>& params,
                   const std::vector<std::vector<float>>& grads,
                   float lr_scale) {
    if (m.empty()) {
      for (const auto& p : params) {
        m.emplace_back(p.size(), 0.f);
        v.emplace_back(p.size(), 0.f);
      }
    }
    ++t;
    const float b1 = config.beta1, b2 = config.beta2;
    const float bias1 = 1.f - std::pow(b1, static_cast<float>(t));
    const float bias2 = 1.f - std::pow(b2, static_cast<float>(t));
    const float lr = config.lr * lr_scale;
    for (std::size_t i = 0; i < params.size(); ++i) {
      for (std::size_t j = 0; j < params[i].size(); ++j) {
        const float g = grads[i][j];
        m[i][j] = b1 * m[i][j] + (1.f - b1) * g;
        v[i][j] = b2 * v[i][j] + (1.f - b2) * g * g;
        const float mhat = m[i][j] / bias1;
        const float vhat = v[i][j] / bias2;
        params[i][j] -= lr * mhat / (std::sqrt(vhat) + config.eps);
      }
    }
  }
};

void expect_same_bits(const Tensor& got, const std::vector<float>& want,
                      const char* what, std::size_t tensor) {
  ASSERT_EQ(got.numel(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(std::memcmp(got.data() + j, &want[j], sizeof(float)), 0)
        << what << " tensor " << tensor << " element " << j << ": got "
        << got[j] << " want " << want[j];
  }
}

TEST(Adam, VectorizedStepBitIdenticalToScalarReference) {
  // Odd sizes so every vector width's remainder loop runs next to its
  // main body.
  const std::vector<std::size_t> sizes = {1, 3, 7, 17, 1031};
  const AdamConfig cfg{1e-3f, 0.5f, 0.999f, 1e-8f};
  Rng rng(41);
  std::vector<Tensor> params, grads;
  std::vector<std::vector<float>> ref_p, ref_g;
  for (std::size_t n : sizes) {
    params.push_back(Tensor::randn({n}, rng));
    grads.emplace_back(std::vector<std::size_t>{n});
    ref_p.emplace_back(params.back().data(), params.back().data() + n);
    ref_g.emplace_back(n, 0.f);
  }
  std::vector<Tensor*> pp, gp;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    pp.push_back(&params[i]);
    gp.push_back(&grads[i]);
  }
  Adam adam(pp, gp, cfg);
  ScalarAdamRef ref{cfg, 0, {}, {}};

  const float scales[] = {1.f, 0.5f, 1.f, 0.5f, 0.5f, 1.f, 1.f};
  for (int step = 0; step < 7; ++step) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      rng.fill_normal(grads[i].data(), grads[i].numel(), 0.f,
                      step % 2 ? 1.f : 1e-3f);
      // Zero gradients mixed in: whole tensors on step 3, scattered
      // elements on every step.
      for (std::size_t j = 0; j < grads[i].numel(); ++j) {
        if (step == 3 || j % 5 == static_cast<std::size_t>(step) % 5) {
          grads[i][j] = 0.f;
        }
      }
      ref_g[i].assign(grads[i].data(), grads[i].data() + grads[i].numel());
    }
    adam.step_scaled(scales[step]);
    ref.step_scaled(ref_p, ref_g, scales[step]);
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    expect_same_bits(params[i], ref_p[i], "p", i);
    expect_same_bits(adam.first_moments()[i], ref.m[i], "m", i);
    expect_same_bits(adam.second_moments()[i], ref.v[i], "v", i);
  }
}

TEST(Adam, OneTensorMatchesPerElementTensors) {
  // One n-element tensor runs the vector body; n one-element tensors
  // run only the scalar remainder. The two must agree bit for bit.
  const std::size_t n = 1031;
  Rng rng(42);
  Tensor whole = Tensor::randn({n}, rng);
  Tensor whole_g({n});
  std::vector<Tensor> parts, parts_g;
  for (std::size_t j = 0; j < n; ++j) {
    parts.emplace_back(std::vector<std::size_t>{1},
                       std::vector<float>{whole[j]});
    parts_g.emplace_back(std::vector<std::size_t>{1});
  }
  std::vector<Tensor*> pp, gp;
  for (std::size_t j = 0; j < n; ++j) {
    pp.push_back(&parts[j]);
    gp.push_back(&parts_g[j]);
  }
  Adam a_whole({&whole}, {&whole_g});
  Adam a_parts(pp, gp);
  for (int step = 0; step < 5; ++step) {
    rng.fill_normal(whole_g.data(), n, 0.f, 1.f);
    for (std::size_t j = 0; j < n; ++j) parts_g[j][0] = whole_g[j];
    const float scale = step % 2 ? 0.5f : 1.f;
    a_whole.step_scaled(scale);
    a_parts.step_scaled(scale);
  }
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(std::memcmp(whole.data() + j, parts[j].data(), sizeof(float)),
              0)
        << "element " << j;
    ASSERT_EQ(std::memcmp(a_whole.first_moments()[0].data() + j,
                          a_parts.first_moments()[j].data(), sizeof(float)),
              0)
        << "m element " << j;
    ASSERT_EQ(std::memcmp(a_whole.second_moments()[0].data() + j,
                          a_parts.second_moments()[j].data(), sizeof(float)),
              0)
        << "v element " << j;
  }
}

TEST(Optimizer, ZeroGradZeroesBoundBuffers) {
  Tensor p({2});
  Tensor g({2}, std::vector<float>{1.f, 2.f});
  Sgd sgd({&p}, {&g}, 0.1f);
  sgd.zero_grad();
  EXPECT_FLOAT_EQ(g[0], 0.f);
  EXPECT_FLOAT_EQ(g[1], 0.f);
}

TEST(Optimizer, MismatchedBindingsThrow) {
  Tensor p({2}), g({3});
  EXPECT_THROW(Sgd({&p}, {&g}, 0.1f), std::invalid_argument);
  Tensor g2({2});
  EXPECT_THROW(Sgd({&p}, {&g2, &g2}, 0.1f), std::invalid_argument);
}

}  // namespace
}  // namespace mdgan::opt
