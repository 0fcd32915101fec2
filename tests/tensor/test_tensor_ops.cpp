#include "tensor/tensor_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

namespace mdgan {
namespace {

TEST(TensorOps, MatmulSmallKnown) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.f);
}

TEST(TensorOps, MatmulTransposeFlagsAgree) {
  Rng rng(1);
  Tensor a = Tensor::randn({4, 6}, rng);
  Tensor b = Tensor::randn({6, 5}, rng);
  Tensor at = transpose(a);
  Tensor bt = transpose(b);
  Tensor ref = matmul(a, b);

  EXPECT_LT(max_abs_diff(ref, matmul(at, b, true, false)), 1e-5f);
  EXPECT_LT(max_abs_diff(ref, matmul(a, bt, false, true)), 1e-5f);
  EXPECT_LT(max_abs_diff(ref, matmul(at, bt, true, true)), 1e-5f);
}

TEST(TensorOps, MatmulInnerDimMismatchThrows) {
  Tensor a({2, 3}), b({4, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(TensorOps, MatmulAccAccumulates) {
  Tensor a({1, 2}, std::vector<float>{1, 1});
  Tensor b({2, 1}, std::vector<float>{2, 3});
  Tensor c({1, 1}, std::vector<float>{10});
  matmul_acc(c, a, b);
  EXPECT_FLOAT_EQ(c[0], 15.f);
}

TEST(TensorOps, MatmulLargeParallelMatchesSerialShape) {
  // Big enough to cross the parallel threshold; compare against the
  // transpose-based identity (A*B)^T == B^T * A^T.
  Rng rng(2);
  Tensor a = Tensor::randn({64, 48}, rng);
  Tensor b = Tensor::randn({48, 72}, rng);
  Tensor c = matmul(a, b);
  Tensor ct = matmul(b, a, true, true);  // B^T A^T, via flags
  EXPECT_LT(max_abs_diff(transpose(c), ct), 1e-4f);
}

TEST(TensorOps, AddRowBroadcast) {
  Tensor rows({2, 3}, std::vector<float>{0, 0, 0, 1, 1, 1});
  Tensor bias({3}, std::vector<float>{1, 2, 3});
  add_row_broadcast(rows, bias);
  EXPECT_FLOAT_EQ(rows.at(0, 2), 3.f);
  EXPECT_FLOAT_EQ(rows.at(1, 0), 2.f);
}

TEST(TensorOps, SumRows) {
  Tensor m({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor s = sum_rows(m);
  EXPECT_FLOAT_EQ(s[0], 5.f);
  EXPECT_FLOAT_EQ(s[1], 7.f);
  EXPECT_FLOAT_EQ(s[2], 9.f);
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Tensor logits = Tensor::randn({5, 7}, rng, 0.f, 4.f);
  Tensor p = softmax_rows(logits);
  for (std::size_t i = 0; i < 5; ++i) {
    float s = 0.f;
    for (std::size_t j = 0; j < 7; ++j) {
      s += p.at(i, j);
      EXPECT_GT(p.at(i, j), 0.f);
    }
    EXPECT_NEAR(s, 1.f, 1e-5f);
  }
}

TEST(TensorOps, SoftmaxNumericallyStableForHugeLogits) {
  Tensor logits({1, 3}, std::vector<float>{1000.f, 1000.f, 1000.f});
  Tensor p = softmax_rows(logits);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(p[j], 1.f / 3, 1e-6f);
}

TEST(TensorOps, Im2ColIdentityKernel) {
  // 1x1 kernel, stride 1: patches == pixels.
  Tensor x({1, 2, 3, 3});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  std::size_t oh, ow;
  Tensor cols = im2col(x, 1, 1, 1, 0, oh, ow);
  EXPECT_EQ(oh, 3u);
  EXPECT_EQ(ow, 3u);
  EXPECT_EQ(cols.shape(), Shape({9, 2}));
  // Patch row p has both channels of pixel p.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.f);
  EXPECT_FLOAT_EQ(cols.at(0, 1), 9.f);
  EXPECT_FLOAT_EQ(cols.at(8, 0), 8.f);
}

TEST(TensorOps, Im2ColKnownPatch) {
  Tensor x({1, 1, 3, 3},
           std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  std::size_t oh, ow;
  Tensor cols = im2col(x, 2, 2, 1, 0, oh, ow);
  EXPECT_EQ(oh, 2u);
  EXPECT_EQ(ow, 2u);
  // First patch is the top-left 2x2 block.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 1.f);
  EXPECT_FLOAT_EQ(cols.at(0, 1), 2.f);
  EXPECT_FLOAT_EQ(cols.at(0, 2), 4.f);
  EXPECT_FLOAT_EQ(cols.at(0, 3), 5.f);
}

TEST(TensorOps, Im2ColPaddingIsZero) {
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  std::size_t oh, ow;
  Tensor cols = im2col(x, 3, 3, 1, 1, oh, ow);
  EXPECT_EQ(oh, 2u);
  EXPECT_EQ(ow, 2u);
  // Patch at (0,0): the 3x3 window centered left-up has 4 padded zeros
  // in the first row/col.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.f);  // (-1,-1)
  EXPECT_FLOAT_EQ(cols.at(0, 4), 1.f);  // center == pixel (0,0)
}

TEST(TensorOps, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
  // property the ConvTranspose2D implementation rests on.
  Rng rng(4);
  Tensor x = Tensor::randn({2, 3, 6, 5}, rng);
  std::size_t oh, ow;
  Tensor cols = im2col(x, 3, 3, 2, 1, oh, ow);
  Tensor y = Tensor::randn(cols.shape(), rng);
  Tensor back = col2im(y, 2, 3, 6, 5, 3, 3, 2, 1, oh, ow);

  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < cols.numel(); ++i) lhs += cols[i] * y[i];
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

// The textbook lowering loops: one bounds check per tap, rows visited
// in (b, oy, ox) order and taps in (c, ky, kx) order. The fast kernels
// must reproduce them bit for bit — col2im included, whose per-element
// float sums depend on that visit order.
void reference_im2col(const Tensor& input, std::size_t kh, std::size_t kw,
                      std::size_t stride, std::size_t pad, std::size_t oh,
                      std::size_t ow, Tensor& cols) {
  const std::size_t batch = input.dim(0), ch = input.dim(1),
                    h = input.dim(2), w = input.dim(3);
  const std::size_t patch = ch * kh * kw;
  cols.resize({batch * oh * ow, patch});
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float* row = cols.data() + ((b * oh + oy) * ow + ox) * patch;
        for (std::size_t c = 0; c < ch; ++c) {
          for (std::size_t ky = 0; ky < kh; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride + ky) -
                static_cast<std::ptrdiff_t>(pad);
            for (std::size_t kx = 0; kx < kw; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride + kx) -
                  static_cast<std::ptrdiff_t>(pad);
              float v = 0.f;
              if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(h) && ix >= 0 &&
                  ix < static_cast<std::ptrdiff_t>(w)) {
                v = input.data()[((b * ch + c) * h + iy) * w + ix];
              }
              row[(c * kh + ky) * kw + kx] = v;
            }
          }
        }
      }
    }
  }
}

void reference_col2im(const Tensor& cols, std::size_t batch, std::size_t ch,
                      std::size_t h, std::size_t w, std::size_t kh,
                      std::size_t kw, std::size_t stride, std::size_t pad,
                      std::size_t oh, std::size_t ow, Tensor& img) {
  const std::size_t patch = ch * kh * kw;
  img.resize({batch, ch, h, w});
  img.zero();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float* row = cols.data() + ((b * oh + oy) * ow + ox) * patch;
        for (std::size_t c = 0; c < ch; ++c) {
          for (std::size_t ky = 0; ky < kh; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride + ky) -
                static_cast<std::ptrdiff_t>(pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < kw; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride + kx) -
                  static_cast<std::ptrdiff_t>(pad);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              img.data()[((b * ch + c) * h + iy) * w + ix] +=
                  row[(c * kh + ky) * kw + kx];
            }
          }
        }
      }
    }
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Runs both lowerings against the reference at one geometry; returns
// false (after recording a failure) on the first mismatch.
bool lowering_matches_reference(std::size_t batch, std::size_t ch,
                                std::size_t h, std::size_t w, std::size_t kh,
                                std::size_t kw, std::size_t stride,
                                std::size_t pad, Rng& rng) {
  const std::string where =
      "B=" + std::to_string(batch) + " C=" + std::to_string(ch) + " " +
      std::to_string(h) + "x" + std::to_string(w) + " k" +
      std::to_string(kh) + "x" + std::to_string(kw) + " s" +
      std::to_string(stride) + " p" + std::to_string(pad);
  const Tensor x = Tensor::randn({batch, ch, h, w}, rng);
  std::size_t oh = 0, ow = 0;
  Tensor cols, want_cols;
  im2col_into(x, kh, kw, stride, pad, oh, ow, cols);
  EXPECT_EQ(oh, (h + 2 * pad - kh) / stride + 1) << where;
  EXPECT_EQ(ow, (w + 2 * pad - kw) / stride + 1) << where;
  reference_im2col(x, kh, kw, stride, pad, oh, ow, want_cols);
  if (!same_bits(cols, want_cols)) {
    ADD_FAILURE() << "im2col differs from the reference at " << where;
    return false;
  }
  const Tensor y = Tensor::randn(cols.shape(), rng);
  Tensor img, want_img;
  col2im_into(y, batch, ch, h, w, kh, kw, stride, pad, oh, ow, img);
  reference_col2im(y, batch, ch, h, w, kh, kw, stride, pad, oh, ow, want_img);
  if (!same_bits(img, want_img)) {
    ADD_FAILURE() << "col2im differs from the reference at " << where;
    return false;
  }
  return true;
}

TEST(TensorOps, LoweringBitIdenticalToReferenceLoops) {
  Rng rng(6);
  struct Image {
    std::size_t batch, ch, h, w;
  };
  // Non-square images both ways round; batch 33 splits unevenly across
  // the pool, 17 channels exercise a non-power-of-two patch.
  const Image images[] = {{1, 1, 7, 5}, {1, 17, 5, 9}, {33, 1, 9, 6},
                          {33, 17, 6, 7}};
  std::size_t checked = 0;
  for (const Image& im : images) {
    for (std::size_t kh = 1; kh <= 5; ++kh) {
      for (std::size_t kw = 1; kw <= 5; ++kw) {
        for (std::size_t stride = 1; stride <= 3; ++stride) {
          for (std::size_t pad = 0; pad <= 2; ++pad) {
            if (im.h + 2 * pad < kh || im.w + 2 * pad < kw) continue;
            ASSERT_TRUE(lowering_matches_reference(im.batch, im.ch, im.h,
                                                   im.w, kh, kw, stride, pad,
                                                   rng));
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 4u * 5 * 5 * 3 * 3);
}

TEST(TensorOps, LoweringBitIdenticalWhenWindowOutgrowsImage) {
  // Windows wider and taller than the image itself: no window is ever
  // interior, and some rows see only padding.
  Rng rng(7);
  for (std::size_t batch : {std::size_t{1}, std::size_t{33}}) {
    for (std::size_t ch : {std::size_t{1}, std::size_t{17}}) {
      EXPECT_TRUE(lowering_matches_reference(batch, ch, 3, 2, 5, 5, 1, 2,
                                             rng));
      EXPECT_TRUE(lowering_matches_reference(batch, ch, 3, 2, 5, 4, 2, 2,
                                             rng));
      EXPECT_TRUE(lowering_matches_reference(batch, ch, 1, 1, 3, 5, 1, 2,
                                             rng));
      EXPECT_TRUE(lowering_matches_reference(batch, ch, 2, 3, 1, 1, 3, 2,
                                             rng));
    }
  }
}

TEST(TensorOps, LoweringBitIdenticalAtGanGeometries) {
  // The conv shapes of gan/arch.cpp at a small batch: D's k3 s2 p1
  // convs (28 -> 14 -> 7 -> 4) and G's k4 s2 p1 / k3 s1 p1 transposed
  // convs, whose forward col2im / backward im2col run the underlying
  // conv's geometry on the ConvT output image.
  Rng rng(8);
  EXPECT_TRUE(lowering_matches_reference(3, 1, 28, 28, 3, 3, 2, 1, rng));
  EXPECT_TRUE(lowering_matches_reference(3, 16, 14, 14, 3, 3, 2, 1, rng));
  EXPECT_TRUE(lowering_matches_reference(3, 32, 7, 7, 3, 3, 2, 1, rng));
  EXPECT_TRUE(lowering_matches_reference(3, 32, 28, 28, 4, 4, 2, 1, rng));
  EXPECT_TRUE(lowering_matches_reference(3, 32, 16, 16, 4, 4, 2, 1, rng));
  EXPECT_TRUE(lowering_matches_reference(3, 3, 32, 32, 3, 3, 1, 1, rng));
}

TEST(TensorOps, TransposeRoundTrip) {
  Rng rng(5);
  Tensor a = Tensor::randn({3, 7}, rng);
  EXPECT_LT(max_abs_diff(a, transpose(transpose(a))), 0.f + 1e-9f);
}

TEST(TensorOps, MapAndClamp) {
  Tensor t({3}, std::vector<float>{-2, 0.5f, 3});
  Tensor sq = map(t, [](float v) { return v * v; });
  EXPECT_FLOAT_EQ(sq[0], 4.f);
  clamp_(t, -1.f, 1.f);
  EXPECT_FLOAT_EQ(t[0], -1.f);
  EXPECT_FLOAT_EQ(t[1], 0.5f);
  EXPECT_FLOAT_EQ(t[2], 1.f);
}

TEST(TensorOps, MseAndMaxAbsDiff) {
  Tensor a({2}, std::vector<float>{0, 0});
  Tensor b({2}, std::vector<float>{3, 4});
  EXPECT_FLOAT_EQ(mse(a, b), 12.5f);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 4.f);
}

}  // namespace
}  // namespace mdgan
