#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "common/thread_pool.hpp"

namespace mdgan {
namespace {


// Grain in rows for a (rows x cols) row-parallel op, where each element
// costs roughly `cost` cheap flops.
std::size_t row_grain(std::size_t cols, std::size_t cost = 1) {
  const std::size_t per_row = std::max<std::size_t>(1, cols * cost);
  return std::max<std::size_t>(1, kParallelGrainElems / per_row);
}

void matmul_dims(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                 std::size_t& m, std::size_t& k, std::size_t& n) {
  if (a.rank() != 2 || b.rank() != 2) {
    throw std::invalid_argument("matmul: tensors must be rank-2, got " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  m = trans_a ? a.dim(1) : a.dim(0);
  k = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t kb = trans_b ? b.dim(1) : b.dim(0);
  n = trans_b ? b.dim(0) : b.dim(1);
  if (k != kb) {
    throw std::invalid_argument("matmul: inner dims mismatch " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  Tensor c;
  matmul_into(c, a, b, trans_a, trans_b);
  return c;
}

void matmul_into(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
                 bool trans_b, const GemmTileHook* hook) {
  std::size_t m, k, n;
  matmul_dims(a, b, trans_a, trans_b, m, k, n);
  c.resize({m, n});
  sgemm(trans_a, trans_b, m, n, k, a.data(), a.dim(1), b.data(), b.dim(1),
        /*accumulate=*/false, c.data(), n, hook);
}

void matmul_acc(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
                bool trans_b) {
  std::size_t m, k, n;
  matmul_dims(a, b, trans_a, trans_b, m, k, n);
  if (c.rank() != 2 || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("matmul_acc: C has wrong shape " +
                                shape_to_string(c.shape()));
  }
  sgemm(trans_a, trans_b, m, n, k, a.data(), a.dim(1), b.data(), b.dim(1),
        /*accumulate=*/true, c.data(), n, nullptr);
}

void add_row_broadcast(Tensor& rows, const Tensor& bias) {
  if (rows.rank() != 2 || bias.numel() != rows.dim(1)) {
    throw std::invalid_argument("add_row_broadcast: shape mismatch");
  }
  const std::size_t b = rows.dim(0), n = rows.dim(1);
  float* __restrict p = rows.data();
  const float* __restrict pb = bias.data();
  parallel_for(b, row_grain(n), [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* __restrict row = p + i * n;
      for (std::size_t j = 0; j < n; ++j) row[j] += pb[j];
    }
  });
}

Tensor sum_rows(const Tensor& m) {
  if (m.rank() != 2) throw std::invalid_argument("sum_rows: rank-2 required");
  Tensor out({m.dim(1)});
  sum_rows_acc(out, m);
  return out;
}

void sum_rows_acc(Tensor& out, const Tensor& m) {
  if (m.rank() != 2 || out.numel() != m.dim(1)) {
    throw std::invalid_argument("sum_rows_acc: shape mismatch");
  }
  const std::size_t b = m.dim(0), n = m.dim(1);
  const float* p = m.data();
  float* po = out.data();
  // Column chunks are disjoint in `out`, so they parallelize cleanly;
  // each column accumulates in double so the bias gradient does not
  // drift as the batch grows.
  constexpr std::size_t kChunk = 64;
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  const std::size_t grain =
      std::max<std::size_t>(1, kParallelGrainElems / std::max<std::size_t>(
                                                 1, b * kChunk));
  parallel_for(chunks, grain, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      const std::size_t j0 = c * kChunk;
      const std::size_t w = std::min(kChunk, n - j0);
      double acc[kChunk] = {};
      for (std::size_t i = 0; i < b; ++i) {
        const float* __restrict row = p + i * n + j0;
        for (std::size_t j = 0; j < w; ++j) acc[j] += row[j];
      }
      for (std::size_t j = 0; j < w; ++j) {
        po[j0 + j] += static_cast<float>(acc[j]);
      }
    }
  });
}

Tensor softmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) {
    throw std::invalid_argument("softmax_rows: rank-2 required");
  }
  const std::size_t b = logits.dim(0), n = logits.dim(1);
  Tensor out(logits.shape());
  const float* p = logits.data();
  float* po = out.data();
  // exp dominates; weigh it as ~16 cheap ops when choosing the grain.
  parallel_for(b, row_grain(n, 16), [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* __restrict row = p + i * n;
      float* __restrict orow = po + i * n;
      float mx = row[0];
      for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
      float denom = 0.f;
      for (std::size_t j = 0; j < n; ++j) {
        const float e = std::exp(row[j] - mx);
        orow[j] = e;
        denom += e;
      }
      const float inv = 1.f / denom;
      for (std::size_t j = 0; j < n; ++j) orow[j] *= inv;
    }
  });
  return out;
}

Tensor transpose(const Tensor& m) {
  if (m.rank() != 2) throw std::invalid_argument("transpose: rank-2 required");
  const std::size_t r = m.dim(0), c = m.dim(1);
  Tensor out({c, r});
  const float* p = m.data();
  float* po = out.data();
  // Blocked so both the row-major read and the column-major write stay
  // within cache-resident tiles.
  constexpr std::size_t kB = 64;
  const std::size_t row_tiles = (r + kB - 1) / kB;
  const std::size_t grain =
      std::max<std::size_t>(1, kParallelGrainElems / std::max<std::size_t>(1, kB * c));
  parallel_for(row_tiles, grain, [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t i0 = t * kB;
      const std::size_t i1 = std::min(r, i0 + kB);
      for (std::size_t j0 = 0; j0 < c; j0 += kB) {
        const std::size_t j1 = std::min(c, j0 + kB);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t j = j0; j < j1; ++j) {
            po[j * r + i] = p[i * c + j];
          }
        }
      }
    }
  });
  return out;
}

Tensor im2col(const Tensor& input, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad, std::size_t& out_h,
              std::size_t& out_w) {
  Tensor cols;
  im2col_into(input, kh, kw, stride, pad, out_h, out_w, cols);
  return cols;
}

namespace {

// Geometry shared by im2col and col2im: NCHW images of `ch` x (h, w)
// and a (out_h, out_w) grid of kh x kw windows placed at stride
// `stride` with `pad` zeros of padding on every side. One patch row per
// (b, oy, ox), laid out as (c, ky, kx).
struct Lowering {
  std::size_t ch, h, w, kh, kw, stride, pad, out_h, out_w;
  std::size_t patch() const { return ch * kh * kw; }
};

// Taps [lo, hi) of a k-wide window whose first tap sits at image
// coordinate `origin` (possibly negative) that land inside [0, extent).
// An empty range comes back as lo == hi == 0.
struct Taps {
  std::size_t lo, hi;
};
Taps valid_taps(std::ptrdiff_t origin, std::size_t k, std::size_t extent) {
  const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -origin);
  const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(k),
      static_cast<std::ptrdiff_t>(extent) - origin);
  if (hi <= lo) return {0, 0};
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

// One kh x kw window: patch row `row` of batch element `b`, whose first
// tap sits at image coordinate (iy0, ix0) (possibly negative), with the
// taps that land inside the image.
struct Window {
  std::size_t b, row;
  std::ptrdiff_t iy0, ix0;
  Taps ty, tx;
  bool interior;  // every tap is inside the image
};

// Visits the windows of batch elements [b0, b1) in (b, oy, ox) order,
// resolving the ky range once per oy and the kx range once per ox. The
// kernels then walk a row's taps in (c, ky, kx) order — the order of
// the textbook loops. Within one row every tap maps to a distinct image
// element, so col2im adds the contributions to any one element in
// (oy, ox) order and its float sums, hence its bits, match those loops.
template <typename Fn>
void for_each_window(const Lowering& g, std::size_t b0, std::size_t b1,
                     Fn&& fn) {
  for (std::size_t b = b0; b < b1; ++b) {
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      const std::ptrdiff_t iy0 = static_cast<std::ptrdiff_t>(oy * g.stride) -
                                 static_cast<std::ptrdiff_t>(g.pad);
      const Taps ty = valid_taps(iy0, g.kh, g.h);
      const bool rows_inside = ty.lo == 0 && ty.hi == g.kh;
      for (std::size_t ox = 0; ox < g.out_w; ++ox) {
        const std::ptrdiff_t ix0 =
            static_cast<std::ptrdiff_t>(ox * g.stride) -
            static_cast<std::ptrdiff_t>(g.pad);
        const Taps tx = valid_taps(ix0, g.kw, g.w);
        fn(Window{b, (b * g.out_h + oy) * g.out_w + ox, iy0, ix0, ty, tx,
                  rows_inside && tx.lo == 0 && tx.hi == g.kw});
      }
    }
  }
}

// Interior windows take a branch-free copy. KW is the kernel width when
// known at compile time, 0 for the generic fallback.
template <std::size_t KW>
void im2col_batches(const Lowering& g, const float* in, float* cols,
                    std::size_t b0, std::size_t b1) {
  const std::size_t kw = KW ? KW : g.kw;
  const std::size_t kh = g.kh, hw = g.h * g.w, patch = g.patch();
  for_each_window(g, b0, b1, [&](const Window& win) {
    const float* img = in + win.b * g.ch * hw;
    float* __restrict row = cols + win.row * patch;
    if (win.interior) {
      const float* __restrict src = img + win.iy0 * g.w + win.ix0;
      for (std::size_t c = 0; c < g.ch; ++c) {
        for (std::size_t ky = 0; ky < kh; ++ky) {
          const float* __restrict s = src + c * hw + ky * g.w;
          float* __restrict d = row + (c * kh + ky) * kw;
          for (std::size_t kx = 0; kx < kw; ++kx) d[kx] = s[kx];
        }
      }
      return;
    }
    for (std::size_t c = 0; c < g.ch; ++c) {
      for (std::size_t ky = 0; ky < kh; ++ky) {
        float* __restrict d = row + (c * kh + ky) * kw;
        for (std::size_t kx = 0; kx < kw; ++kx) d[kx] = 0.f;
        if (ky < win.ty.lo || ky >= win.ty.hi) continue;
        const float* __restrict s =
            img + c * hw + (win.iy0 + static_cast<std::ptrdiff_t>(ky)) * g.w;
        for (std::size_t kx = win.tx.lo; kx < win.tx.hi; ++kx) {
          d[kx] = s[win.ix0 + static_cast<std::ptrdiff_t>(kx)];
        }
      }
    }
  });
}

template <std::size_t KW>
void col2im_batches(const Lowering& g, const float* cols, float* out,
                    std::size_t b0, std::size_t b1) {
  const std::size_t kw = KW ? KW : g.kw;
  const std::size_t kh = g.kh, hw = g.h * g.w, patch = g.patch();
  for_each_window(g, b0, b1, [&](const Window& win) {
    float* img = out + win.b * g.ch * hw;
    const float* __restrict row = cols + win.row * patch;
    if (win.interior) {
      float* __restrict dst = img + win.iy0 * g.w + win.ix0;
      for (std::size_t c = 0; c < g.ch; ++c) {
        for (std::size_t ky = 0; ky < kh; ++ky) {
          float* __restrict d = dst + c * hw + ky * g.w;
          const float* __restrict s = row + (c * kh + ky) * kw;
          for (std::size_t kx = 0; kx < kw; ++kx) d[kx] += s[kx];
        }
      }
      return;
    }
    for (std::size_t c = 0; c < g.ch; ++c) {
      for (std::size_t ky = win.ty.lo; ky < win.ty.hi; ++ky) {
        float* __restrict d =
            img + c * hw + (win.iy0 + static_cast<std::ptrdiff_t>(ky)) * g.w;
        const float* __restrict s = row + (c * kh + ky) * kw;
        for (std::size_t kx = win.tx.lo; kx < win.tx.hi; ++kx) {
          d[win.ix0 + static_cast<std::ptrdiff_t>(kx)] += s[kx];
        }
      }
    }
  });
}

// Calls fn(std::integral_constant<std::size_t, KW>) with KW = kw for the
// kernel widths the architectures use, KW = 0 (runtime width) otherwise.
template <typename Fn>
void dispatch_kernel_width(std::size_t kw, Fn&& fn) {
  switch (kw) {
    case 3: fn(std::integral_constant<std::size_t, 3>{}); break;
    case 4: fn(std::integral_constant<std::size_t, 4>{}); break;
    default: fn(std::integral_constant<std::size_t, 0>{}); break;
  }
}

// Batch elements touch disjoint patch rows and disjoint image planes,
// so both kernels parallelize across them.
std::size_t batch_grain(const Lowering& g) {
  const std::size_t per_batch = g.out_h * g.out_w * g.patch();
  return std::max<std::size_t>(
      1, kParallelGrainElems / std::max<std::size_t>(1, per_batch));
}

}  // namespace

void im2col_into(const Tensor& input, std::size_t kh, std::size_t kw,
                 std::size_t stride, std::size_t pad, std::size_t& out_h,
                 std::size_t& out_w, Tensor& cols) {
  if (input.rank() != 4) throw std::invalid_argument("im2col: NCHW required");
  const std::size_t batch = input.dim(0), ch = input.dim(1),
                    h = input.dim(2), w = input.dim(3);
  if (h + 2 * pad < kh || w + 2 * pad < kw) {
    throw std::invalid_argument("im2col: kernel larger than padded input");
  }
  out_h = (h + 2 * pad - kh) / stride + 1;
  out_w = (w + 2 * pad - kw) / stride + 1;
  const Lowering g{ch, h, w, kh, kw, stride, pad, out_h, out_w};
  cols.resize({batch * out_h * out_w, g.patch()});
  const float* in = input.data();
  float* pc = cols.data();
  dispatch_kernel_width(kw, [&](auto kw_const) {
    parallel_for(batch, batch_grain(g),
                 [&](std::size_t b_begin, std::size_t b_end) {
                   im2col_batches<decltype(kw_const)::value>(g, in, pc,
                                                             b_begin, b_end);
                 });
  });
}

Tensor col2im(const Tensor& cols, std::size_t batch, std::size_t channels,
              std::size_t height, std::size_t width, std::size_t kh,
              std::size_t kw, std::size_t stride, std::size_t pad,
              std::size_t out_h, std::size_t out_w) {
  Tensor img;
  col2im_into(cols, batch, channels, height, width, kh, kw, stride, pad,
              out_h, out_w, img);
  return img;
}

void col2im_into(const Tensor& cols, std::size_t batch, std::size_t channels,
                 std::size_t height, std::size_t width, std::size_t kh,
                 std::size_t kw, std::size_t stride, std::size_t pad,
                 std::size_t out_h, std::size_t out_w, Tensor& img) {
  const Lowering g{channels, height, width, kh, kw, stride, pad, out_h,
                   out_w};
  if (cols.rank() != 2 || cols.dim(0) != batch * out_h * out_w ||
      cols.dim(1) != g.patch()) {
    throw std::invalid_argument("col2im: cols shape mismatch, got " +
                                shape_to_string(cols.shape()));
  }
  img.resize({batch, channels, height, width});
  img.zero();
  const float* pc = cols.data();
  float* out = img.data();
  dispatch_kernel_width(kw, [&](auto kw_const) {
    parallel_for(batch, batch_grain(g),
                 [&](std::size_t b_begin, std::size_t b_end) {
                   col2im_batches<decltype(kw_const)::value>(g, pc, out,
                                                             b_begin, b_end);
                 });
  });
}

Tensor map(const Tensor& t, float (*fn)(float)) {
  Tensor out(t.shape());
  const float* p = t.data();
  float* po = out.data();
  parallel_for(t.numel(), kParallelGrainElems, [&](std::size_t e0, std::size_t e1) {
    for (std::size_t i = e0; i < e1; ++i) po[i] = fn(p[i]);
  });
  return out;
}

void clamp_(Tensor& t, float lo, float hi) {
  float* __restrict p = t.data();
  parallel_for(t.numel(), kParallelGrainElems, [&](std::size_t e0, std::size_t e1) {
    for (std::size_t i = e0; i < e1; ++i) p[i] = std::clamp(p[i], lo, hi);
  });
}

float mse(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) throw std::invalid_argument("mse: shape");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return a.numel() ? static_cast<float>(acc / a.numel()) : 0.f;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("max_abs_diff: shape");
  }
  float mx = 0.f;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    mx = std::max(mx, std::abs(a[i] - b[i]));
  }
  return mx;
}

}  // namespace mdgan
