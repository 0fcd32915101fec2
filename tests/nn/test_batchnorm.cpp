#include "nn/batchnorm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "helpers/gradient_check.hpp"

namespace mdgan::nn {
namespace {

TEST(BatchNorm, NormalizesTrainBatchRank2) {
  BatchNorm bn(3);
  Rng rng(51);
  Tensor x = Tensor::randn({16, 3}, rng, 5.f, 2.f);
  Tensor y = bn.forward(x, /*train=*/true);
  // Per-feature mean ~0 and var ~1 after normalization (gamma=1, beta=0).
  for (std::size_t c = 0; c < 3; ++c) {
    double mean = 0, var = 0;
    for (std::size_t i = 0; i < 16; ++i) mean += y.at(i, c);
    mean /= 16;
    for (std::size_t i = 0; i < 16; ++i) {
      var += (y.at(i, c) - mean) * (y.at(i, c) - mean);
    }
    var /= 16;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, NormalizesPerChannelRank4) {
  BatchNorm bn(2);
  Rng rng(52);
  Tensor x = Tensor::randn({4, 2, 3, 3}, rng, -2.f, 3.f);
  Tensor y = bn.forward(x, true);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      for (std::size_t i = 0; i < 9; ++i) {
        mean += y[((b * 2 + c) * 9) + i];
      }
    }
    mean /= 36;
    EXPECT_NEAR(mean, 0.0, 1e-4);
  }
}

TEST(BatchNorm, RunningStatsConvergeToBatchStats) {
  BatchNorm bn(1, /*momentum=*/0.0f);  // momentum 0: adopt batch stats
  Tensor x({4, 1}, std::vector<float>{1, 2, 3, 4});
  bn.forward(x, true);
  EXPECT_NEAR(bn.running_mean()[0], 2.5f, 1e-5f);
  EXPECT_NEAR(bn.running_var()[0], 1.25f, 1e-5f);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm bn(1, 0.0f);
  Tensor x({4, 1}, std::vector<float>{1, 2, 3, 4});
  bn.forward(x, true);  // running mean 2.5, var 1.25
  Tensor probe({1, 1}, std::vector<float>{2.5f});
  Tensor y = bn.forward(probe, /*train=*/false);
  EXPECT_NEAR(y[0], 0.f, 1e-4f);
}

TEST(BatchNorm, GradientCheckRank2) {
  Rng rng(53);
  BatchNorm bn(4);
  Tensor x = Tensor::randn({6, 4}, rng, 1.f, 2.f);
  auto res = testing::check_gradients(bn, x, rng);
  EXPECT_LT(res.max_input_error, 3e-2) << res.worst_location;
  EXPECT_LT(res.max_param_error, 3e-2) << res.worst_location;
}

TEST(BatchNorm, GradientCheckRank4) {
  Rng rng(54);
  BatchNorm bn(2);
  Tensor x = Tensor::randn({3, 2, 2, 2}, rng, 0.5f, 1.5f);
  auto res = testing::check_gradients(bn, x, rng);
  EXPECT_LT(res.max_input_error, 3e-2) << res.worst_location;
  EXPECT_LT(res.max_param_error, 3e-2) << res.worst_location;
}

TEST(BatchNorm, RejectsWrongChannelCount) {
  BatchNorm bn(3);
  Tensor x({2, 4});
  EXPECT_THROW(bn.forward(x, true), std::invalid_argument);
  Tensor x3({2, 4, 4});  // rank-3 unsupported
  EXPECT_THROW(bn.forward(x3, true), std::invalid_argument);
}

TEST(BatchNorm, BackwardBeforeForwardThrows) {
  BatchNorm bn(3);
  Tensor g({2, 3});
  EXPECT_THROW(bn.backward_ws(g), std::logic_error);
  EXPECT_THROW(bn.backward(g), std::logic_error);
}

// The allocating BatchNorm that preceded the workspace path, kept
// verbatim as the reference the ws path must match bit for bit: double
// accumulators in this loop order, the float p[i] - mean[c] subtraction,
// and per-(o, c) float partial sums in backward.
struct ReferenceBatchNorm {
  explicit ReferenceBatchNorm(std::size_t channels)
      : channels_(channels),
        gamma_({channels}, 1.f),
        beta_({channels}),
        dgamma_({channels}),
        dbeta_({channels}),
        running_mean_({channels}),
        running_var_({channels}, 1.f) {}

  void split_dims(const Shape& s, std::size_t& outer,
                  std::size_t& inner) const {
    outer = s[0];
    inner = s.size() == 4 ? s[2] * s[3] : 1;
  }

  Tensor forward(const Tensor& x, bool train) {
    std::size_t outer, inner;
    split_dims(x.shape(), outer, inner);
    cached_shape_ = x.shape();
    const std::size_t n_per_ch = outer * inner;
    const float* px = x.data();

    Tensor mean({channels_});
    Tensor var({channels_});
    if (train) {
      for (std::size_t c = 0; c < channels_; ++c) {
        double acc = 0.0;
        for (std::size_t o = 0; o < outer; ++o) {
          const float* p = px + (o * channels_ + c) * inner;
          for (std::size_t i = 0; i < inner; ++i) acc += p[i];
        }
        mean[c] = static_cast<float>(acc / n_per_ch);
      }
      for (std::size_t c = 0; c < channels_; ++c) {
        double acc = 0.0;
        for (std::size_t o = 0; o < outer; ++o) {
          const float* p = px + (o * channels_ + c) * inner;
          for (std::size_t i = 0; i < inner; ++i) {
            const double d = p[i] - mean[c];
            acc += d * d;
          }
        }
        var[c] = static_cast<float>(acc / n_per_ch);
      }
      for (std::size_t c = 0; c < channels_; ++c) {
        running_mean_[c] =
            momentum_ * running_mean_[c] + (1.f - momentum_) * mean[c];
        running_var_[c] =
            momentum_ * running_var_[c] + (1.f - momentum_) * var[c];
      }
    } else {
      mean = running_mean_;
      var = running_var_;
    }

    cached_inv_std_ = Tensor({channels_});
    for (std::size_t c = 0; c < channels_; ++c) {
      cached_inv_std_[c] = 1.f / std::sqrt(var[c] + eps_);
    }

    Tensor y(x.shape());
    cached_xhat_ = Tensor(x.shape());
    float* py = y.data();
    float* ph = cached_xhat_.data();
    for (std::size_t o = 0; o < outer; ++o) {
      for (std::size_t c = 0; c < channels_; ++c) {
        const float m = mean[c], is = cached_inv_std_[c];
        const float g = gamma_[c], bt = beta_[c];
        const std::size_t base = (o * channels_ + c) * inner;
        for (std::size_t i = 0; i < inner; ++i) {
          const float xhat = (px[base + i] - m) * is;
          ph[base + i] = xhat;
          py[base + i] = g * xhat + bt;
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) {
    std::size_t outer, inner;
    split_dims(cached_shape_, outer, inner);
    const std::size_t n_per_ch = outer * inner;
    const float* pg = grad_out.data();
    const float* ph = cached_xhat_.data();

    Tensor sum_g({channels_});
    Tensor sum_gx({channels_});
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

    Tensor dx(cached_shape_);
    float* pd = dx.data();
    const float inv_n = 1.f / static_cast<float>(n_per_ch);
    for (std::size_t o = 0; o < outer; ++o) {
      for (std::size_t c = 0; c < channels_; ++c) {
        const float coef = gamma_[c] * cached_inv_std_[c] * inv_n;
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

  std::size_t channels_;
  float momentum_ = 0.9f, eps_ = 1e-5f;
  Tensor gamma_, beta_, dgamma_, dbeta_;
  Tensor running_mean_, running_var_;
  Tensor cached_xhat_;
  Tensor cached_inv_std_;
  Shape cached_shape_;
};

void expect_bits_equal(const Tensor& got, const Tensor& want,
                       const char* what, std::size_t step) {
  ASSERT_EQ(got.shape(), want.shape()) << what << " step " << step;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.numel() * sizeof(float)))
      << what << " differs from the reference at step " << step;
}

struct Step {
  Shape shape;
  bool train;
};

// Runs the same forward/backward sequence through the ws path and the
// reference, never zeroing gradients, so dgamma/dbeta accumulate across
// steps; compares every output and the running statistics by memcmp.
void check_matches_reference(std::size_t channels,
                             const std::vector<Step>& steps,
                             std::uint64_t seed) {
  BatchNorm bn(channels);
  ReferenceBatchNorm ref(channels);
  Rng rng(seed);
  // Non-trivial affine parameters, shared by both.
  rng.fill_normal(ref.gamma_.data(), channels, 1.f, 0.3f);
  rng.fill_normal(ref.beta_.data(), channels, 0.f, 0.3f);
  *bn.params()[0] = ref.gamma_;
  *bn.params()[1] = ref.beta_;

  for (std::size_t s = 0; s < steps.size(); ++s) {
    const Tensor x = Tensor::randn(steps[s].shape, rng, 0.7f, 1.9f);
    const Tensor gy = Tensor::randn(steps[s].shape, rng);
    expect_bits_equal(bn.forward_ws(x, steps[s].train),
                      ref.forward(x, steps[s].train), "y", s);
    expect_bits_equal(bn.running_mean(), ref.running_mean_, "running_mean",
                      s);
    expect_bits_equal(bn.running_var(), ref.running_var_, "running_var", s);
    expect_bits_equal(bn.backward_ws(gy), ref.backward(gy), "dx", s);
    expect_bits_equal(*bn.grads()[0], ref.dgamma_, "dgamma", s);
    expect_bits_equal(*bn.grads()[1], ref.dbeta_, "dbeta", s);
  }
}

TEST(BatchNorm, WsPathBitIdenticalToReferenceRank2) {
  const Shape s{16, 24};
  check_matches_reference(24, {{s, true}, {s, true}, {s, false}}, 61);
}

TEST(BatchNorm, WsPathBitIdenticalToReferenceCnnShapes) {
  // The two BatchNorm inputs of the CNN-MNIST generator at batch 32.
  const Shape s14{32, 32, 14, 14}, s28{32, 32, 28, 28};
  check_matches_reference(32, {{s14, true}, {s14, true}, {s14, false}}, 62);
  check_matches_reference(32, {{s28, true}, {s28, true}, {s28, false}}, 63);
}

TEST(BatchNorm, WsPathBitIdenticalAfterLargeEvalForward) {
  // The order the server's generator sees: the evaluator's 512-sample
  // inference pass, then a 32-sample training step on the same layer.
  check_matches_reference(
      32, {{{512, 32, 14, 14}, false}, {{32, 32, 14, 14}, true}}, 64);
}

}  // namespace
}  // namespace mdgan::nn
