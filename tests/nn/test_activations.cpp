#include "nn/activations.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "helpers/gradient_check.hpp"

namespace mdgan::nn {
namespace {

TEST(Activations, ReLUForward) {
  ReLU relu;
  Tensor x({4}, std::vector<float>{-1, 0, 0.5f, 2});
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.f);
  EXPECT_FLOAT_EQ(y[1], 0.f);
  EXPECT_FLOAT_EQ(y[2], 0.5f);
  EXPECT_FLOAT_EQ(y[3], 2.f);
}

TEST(Activations, LeakyReLUForward) {
  LeakyReLU lrelu(0.1f);
  Tensor x({3}, std::vector<float>{-2, 0, 3});
  Tensor y = lrelu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], -0.2f);
  EXPECT_FLOAT_EQ(y[2], 3.f);
}

TEST(Activations, TanhForward) {
  Tanh t;
  Tensor x({2}, std::vector<float>{0.f, 100.f});
  Tensor y = t.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.f);
  EXPECT_NEAR(y[1], 1.f, 1e-6f);
}

TEST(Activations, SigmoidForward) {
  Sigmoid s;
  Tensor x({3}, std::vector<float>{0.f, -100.f, 100.f});
  Tensor y = s.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.5f);
  EXPECT_NEAR(y[1], 0.f, 1e-6f);
  EXPECT_NEAR(y[2], 1.f, 1e-6f);
}

template <typename L>
void check_activation_gradient(L layer, std::uint64_t seed) {
  Rng rng(seed);
  // Offset away from the ReLU kink so finite differences are valid.
  Tensor x = Tensor::randn({4, 6}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 5e-3f) x[i] = 0.1f;
  }
  auto res = testing::check_gradients(layer, x, rng);
  EXPECT_LT(res.max_input_error, 2e-2) << res.worst_location;
}

TEST(Activations, ReLUGradient) { check_activation_gradient(ReLU{}, 31); }
TEST(Activations, LeakyReLUGradient) {
  check_activation_gradient(LeakyReLU{0.2f}, 32);
}
TEST(Activations, TanhGradient) { check_activation_gradient(Tanh{}, 33); }
TEST(Activations, SigmoidGradient) {
  check_activation_gradient(Sigmoid{}, 34);
}

TEST(Activations, ReLUBackwardBitExactSelect) {
  // Pins the backward as a select on y > 0, not a multiply by a mask:
  // where y <= 0 the result is +0.0 even for a NaN or inf gradient
  // (NaN * 0 would be NaN), and where y > 0 the gradient passes through
  // bit for bit. Sized past the parallel grain with an odd tail so
  // every chunk boundary and vector remainder is covered.
  const std::size_t n = 70001;
  Rng rng(35);
  Tensor x = Tensor::randn({n}, rng);
  Tensor grad = Tensor::randn({n}, rng);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; i += 7) x[i] = (i / 7) % 2 ? 0.f : -0.f;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] > 0.f) continue;
    switch (i % 5) {
      case 0: grad[i] = nan; break;
      case 1: grad[i] = inf; break;
      case 2: grad[i] = -inf; break;
      case 3: grad[i] = -0.f; break;
      default: break;
    }
  }
  // NaN and inf must also pass through untouched where y > 0.
  std::size_t passed_nonfinite = 0;
  for (std::size_t i = 0; i < n && passed_nonfinite < 4; ++i) {
    if (x[i] > 0.f) grad[i] = passed_nonfinite++ % 2 ? inf : nan;
  }

  ReLU relu;
  relu.forward_ws(x, true);
  const Tensor& dx = relu.backward_ws(grad);
  ASSERT_EQ(dx.numel(), n);
  std::size_t zeroed_nonfinite = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float want = x[i] > 0.f ? grad[i] : 0.f;
    ASSERT_EQ(std::memcmp(dx.data() + i, &want, sizeof(float)), 0)
        << "i=" << i << " x=" << x[i] << " grad=" << grad[i]
        << " dx=" << dx[i];
    if (!(x[i] > 0.f) && !std::isfinite(grad[i])) ++zeroed_nonfinite;
  }
  EXPECT_GT(zeroed_nonfinite, n / 5);
}

TEST(Activations, LeakyReLUBitExactSelect) {
  // Pins forward and backward as selects between the value and alpha
  // times it, bit for bit against a scalar reference: signed zeros keep
  // their sign, NaN and inf pass through where the mask picks the
  // identity arm, and with alpha == 0 an inf gradient where y <= 0
  // still gives 0 * inf = NaN. Sized past the parallel grain with an
  // odd tail so chunk boundaries and vector remainders run.
  const std::size_t n = 70001;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.f, -0.f, nan, -nan, inf, -inf};
  for (const float alpha : {0.f, 0.2f}) {
    Rng rng(36);
    Tensor x = Tensor::randn({n}, rng);
    Tensor grad = Tensor::randn({n}, rng);
    // Every 7th element pairs a special input with a special gradient,
    // cycling through all 36 pairs; 3 further on, a special gradient
    // meets a random-signed input.
    for (std::size_t k = 0; 7 * k + 3 < n; ++k) {
      x[7 * k] = specials[k % 6];
      grad[7 * k] = specials[(k / 6) % 6];
      grad[7 * k + 3] = specials[k % 6];
    }

    LeakyReLU lrelu(alpha);
    const Tensor& y = lrelu.forward_ws(x, true);
    ASSERT_EQ(y.numel(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const float want = x[i] > 0.f ? x[i] : alpha * x[i];
      ASSERT_EQ(std::memcmp(y.data() + i, &want, sizeof(float)), 0)
          << "alpha=" << alpha << " i=" << i << " x=" << x[i]
          << " y=" << y[i];
    }
    const std::vector<float> y_copy(y.data(), y.data() + n);
    const Tensor& dx = lrelu.backward_ws(grad);
    ASSERT_EQ(dx.numel(), n);
    std::size_t zero_alpha_nans = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const float want = y_copy[i] > 0.f ? grad[i] : alpha * grad[i];
      ASSERT_EQ(std::memcmp(dx.data() + i, &want, sizeof(float)), 0)
          << "alpha=" << alpha << " i=" << i << " y=" << y_copy[i]
          << " grad=" << grad[i] << " dx=" << dx[i];
      if (alpha == 0.f && !(y_copy[i] > 0.f) && std::isinf(grad[i])) {
        EXPECT_TRUE(std::isnan(dx[i])) << "i=" << i;
        ++zero_alpha_nans;
      }
    }
    if (alpha == 0.f) EXPECT_GT(zero_alpha_nans, 0u);
  }
}

TEST(Activations, BackwardShapeMismatchThrows) {
  ReLU relu;
  Tensor x({2, 2});
  relu.forward(x, true);
  Tensor bad({4});
  EXPECT_THROW(relu.backward(bad), std::invalid_argument);
}

TEST(Activations, NoParams) {
  ReLU relu;
  EXPECT_TRUE(relu.params().empty());
  EXPECT_TRUE(relu.grads().empty());
  EXPECT_EQ(relu.param_count(), 0u);
}

}  // namespace
}  // namespace mdgan::nn
