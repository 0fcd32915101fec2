// Workspace-arena contract tests: (1) warmed-up Dense/Conv2D/BatchNorm
// training steps perform ZERO heap allocations (checked against the
// global allocation counters installed by common/alloc_tracker.cpp), and
// (2) arena reuse is arithmetically invisible — training with warm,
// reused arenas produces bit-identical weights to a reference that
// allocates fresh layers (cold arenas) every step. Every layer runs on
// its ws pair only; Layer::forward/backward are copies of its result.
//
// Shapes are deliberately small enough to stay under the GEMM engine's
// and elementwise ops' parallel grain, so the hot path is serial and
// thus allocation-free on any host core count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/rng.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "tensor/tensor_ops.hpp"

namespace mdgan::nn {
namespace {

TEST(Workspace, DenseSteadyStateIsAllocationFree) {
  Rng rng(1);
  Dense layer(64, 32);
  rng.fill_normal(layer.weight().data(), layer.weight().numel(), 0.f, 0.1f);
  Tensor x = Tensor::randn({8, 64}, rng);
  Tensor gy = Tensor::randn({8, 32}, rng);

  // Grad pointers fetched once, as the optimizers do (Layer::grads()
  // builds a fresh vector per call).
  auto grads = layer.grads();
  auto step = [&] {
    const Tensor& y = layer.forward_ws(x, true);
    (void)y;
    const Tensor& dx = layer.backward_ws(gy);
    (void)dx;
    for (Tensor* g : grads) g->zero();
  };
  for (int i = 0; i < 3; ++i) step();  // warm the arena + gemm scratch

  const AllocStats before = alloc_stats();
  for (int i = 0; i < 10; ++i) step();
  const AllocStats delta = alloc_stats() - before;
  EXPECT_EQ(delta.count, 0u) << "bytes=" << delta.bytes;
  EXPECT_EQ(delta.bytes, 0u);
}

TEST(Workspace, Conv2DSteadyStateIsAllocationFree) {
  Rng rng(2);
  Conv2D layer(2, 4, 3, 3, 1, 1);
  rng.fill_normal(layer.weight().data(), layer.weight().numel(), 0.f, 0.1f);
  Tensor x = Tensor::randn({2, 2, 8, 8}, rng);
  Tensor gy = Tensor::randn({2, 4, 8, 8}, rng);

  auto grads = layer.grads();
  auto step = [&] {
    const Tensor& y = layer.forward_ws(x, true);
    (void)y;
    const Tensor& dx = layer.backward_ws(gy);
    (void)dx;
    for (Tensor* g : grads) g->zero();
  };
  for (int i = 0; i < 3; ++i) step();

  const AllocStats before = alloc_stats();
  for (int i = 0; i < 10; ++i) step();
  const AllocStats delta = alloc_stats() - before;
  EXPECT_EQ(delta.count, 0u) << "bytes=" << delta.bytes;
  EXPECT_EQ(delta.bytes, 0u);
}

TEST(Workspace, BatchNormSteadyStateIsAllocationFree) {
  Rng rng(3);
  BatchNorm layer(4);
  Tensor x = Tensor::randn({2, 4, 6, 6}, rng);
  Tensor gy = Tensor::randn({2, 4, 6, 6}, rng);
  Tensor x_eval = Tensor::randn({3, 4, 6, 6}, rng);

  auto grads = layer.grads();
  // An inference pass at another batch size between training steps, as
  // the evaluator interleaves with the server's generator updates.
  auto step = [&] {
    const Tensor& y_eval = layer.forward_ws(x_eval, false);
    (void)y_eval;
    const Tensor& y = layer.forward_ws(x, true);
    (void)y;
    const Tensor& dx = layer.backward_ws(gy);
    (void)dx;
    for (Tensor* g : grads) g->zero();
  };
  for (int i = 0; i < 3; ++i) step();

  const AllocStats before = alloc_stats();
  for (int i = 0; i < 10; ++i) step();
  const AllocStats delta = alloc_stats() - before;
  EXPECT_EQ(delta.count, 0u) << "bytes=" << delta.bytes;
  EXPECT_EQ(delta.bytes, 0u);
}

// Copies index-aligned parameter/gradient tensors between layers.
void assign_params(Layer& dst, const std::vector<std::vector<float>>& src) {
  auto ps = dst.params();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::copy(src[i].begin(), src[i].end(), ps[i]->data());
  }
}

std::vector<std::vector<float>> read_tensors(std::vector<Tensor*> ts) {
  std::vector<std::vector<float>> out;
  for (Tensor* t : ts) out.push_back(t->vec());
  return out;
}

// Reference "per-step allocation" trainer: a brand-new layer object per
// step (cold arenas, every buffer freshly allocated), weights threaded
// through by copy. Must be bit-identical to reusing one warm layer.
template <typename MakeLayer>
void check_reuse_determinism(MakeLayer make_layer, const Shape& x_shape,
                             const Shape& gy_shape, std::uint64_t seed) {
  const int kEpochs = 2, kStepsPerEpoch = 5;
  const float lr = 0.05f;

  Rng init_rng(seed);
  auto proto = make_layer();
  for (Tensor* p : proto->params()) {
    init_rng.fill_normal(p->data(), p->numel(), 0.f, 0.1f);
  }
  auto warm_weights = read_tensors(proto->params());
  auto cold_weights = warm_weights;

  auto& warm = *proto;  // one instance, arenas reused across all steps
  Rng data_warm(seed + 1), data_cold(seed + 1);

  auto run_step = [&](Layer& layer, Rng& rng,
                      std::vector<std::vector<float>>& weights) {
    Tensor x = Tensor::randn(x_shape, rng);
    Tensor gy = Tensor::randn(gy_shape, rng);
    assign_params(layer, weights);
    layer.zero_grad();
    layer.forward_ws(x, true);
    layer.backward_ws(gy);
    auto gs = layer.grads();
    for (std::size_t i = 0; i < gs.size(); ++i) {
      const float* g = gs[i]->data();
      for (std::size_t e = 0; e < weights[i].size(); ++e) {
        weights[i][e] -= lr * g[e];
      }
    }
  };

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (int s = 0; s < kStepsPerEpoch; ++s) {
      run_step(warm, data_warm, warm_weights);
      auto fresh = make_layer();  // cold arena every step
      run_step(*fresh, data_cold, cold_weights);
    }
  }

  ASSERT_EQ(warm_weights.size(), cold_weights.size());
  for (std::size_t i = 0; i < warm_weights.size(); ++i) {
    ASSERT_EQ(warm_weights[i].size(), cold_weights[i].size());
    EXPECT_EQ(0, std::memcmp(warm_weights[i].data(), cold_weights[i].data(),
                             warm_weights[i].size() * sizeof(float)))
        << "param " << i << " diverged between warm and cold arenas";
  }
}

TEST(Workspace, DenseReuseIsBitIdenticalToPerStepAllocation) {
  check_reuse_determinism(
      [] { return std::make_unique<Dense>(48, 24); }, Shape{6, 48},
      Shape{6, 24}, 42);
}

TEST(Workspace, Conv2DReuseIsBitIdenticalToPerStepAllocation) {
  check_reuse_determinism(
      [] { return std::make_unique<Conv2D>(3, 5, 3, 3, 2, 1); },
      Shape{2, 3, 9, 9}, Shape{2, 5, 5, 5}, 43);
}

TEST(Workspace, BatchNormReuseIsBitIdenticalToPerStepAllocation) {
  check_reuse_determinism([] { return std::make_unique<BatchNorm>(5); },
                          Shape{4, 5, 3, 3}, Shape{4, 5, 3, 3}, 44);
}

}  // namespace
}  // namespace mdgan::nn
