// Bulk kernels over Tensor: blocked/packed parallel matmul (with
// transpose flags, which is all backprop needs), broadcast bias, axis
// reductions, and the im2col/col2im pair that turns convolutions into
// matmuls. The matmul entry points ride the sgemm engine in gemm.hpp;
// elementwise/reduction ops fan out over the global pool with a
// minimum-work grain so tiny tensors stay serial (and allocation-free).
#pragma once

#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace mdgan {

// C = op(A) * op(B) where op is optional transposition.
//   trans_a == false: A is (M x K); true: A is (K x M) read transposed.
//   trans_b == false: B is (K x N); true: B is (N x K) read transposed.
// Tile-parallel via the blocked GEMM engine.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

// As matmul, but writes into `c` (resized in place, so a reused `c`
// allocates nothing in steady state). `hook`, if given, runs once per
// completed C tile while it is cache-hot — the fused-epilogue channel
// the conv layers use for bias add + NCHW reorder.
void matmul_into(Tensor& c, const Tensor& a, const Tensor& b,
                 bool trans_a = false, bool trans_b = false,
                 const GemmTileHook* hook = nullptr);

// C += op(A) * op(B); shapes as matmul. Used to accumulate gradients.
void matmul_acc(Tensor& c, const Tensor& a, const Tensor& b,
                bool trans_a = false, bool trans_b = false);

// rows (B x N) += bias (N), broadcast over rows.
void add_row_broadcast(Tensor& rows, const Tensor& bias);

// Sum of a (B x N) tensor over axis 0 -> (N). Used for bias gradients.
// Accumulates in double per column so the result does not drift with
// batch size.
Tensor sum_rows(const Tensor& m);

// out (N) += column sums of m (B x N); the allocation-free form the
// layers use for bias gradients.
void sum_rows_acc(Tensor& out, const Tensor& m);

// Row-wise softmax of a (B x N) tensor (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

// Transpose of a rank-2 tensor (cache-blocked).
Tensor transpose(const Tensor& m);

// im2col for NCHW tensors.
//   input:  (B, C, H, W)
//   output: (B, C*kh*kw, out_h*out_w) flattened as rank-2
//           (B * out_h * out_w, C*kh*kw) row-major patches — i.e. one row
//           per output pixel per batch element, so conv becomes
//           patches (B*P, C*kh*kw) x weights^T (C*kh*kw, OC).
// Zero padding `pad` on both sides, stride `stride`.
Tensor im2col(const Tensor& input, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad, std::size_t& out_h,
              std::size_t& out_w);

// As im2col, but writes into `cols` (resized in place).
void im2col_into(const Tensor& input, std::size_t kh, std::size_t kw,
                 std::size_t stride, std::size_t pad, std::size_t& out_h,
                 std::size_t& out_w, Tensor& cols);

// Adjoint of im2col: scatters patch rows back into an NCHW image tensor
// (accumulating overlaps). `cols` must be (B*out_h*out_w, C*kh*kw).
// Overlapping contributions to an image element are summed in (oy, ox)
// order, whatever the thread count, so the result is bit-reproducible.
Tensor col2im(const Tensor& cols, std::size_t batch, std::size_t channels,
              std::size_t height, std::size_t width, std::size_t kh,
              std::size_t kw, std::size_t stride, std::size_t pad,
              std::size_t out_h, std::size_t out_w);

// As col2im, but writes into `img` (resized and zeroed in place).
void col2im_into(const Tensor& cols, std::size_t batch, std::size_t channels,
                 std::size_t height, std::size_t width, std::size_t kh,
                 std::size_t kw, std::size_t stride, std::size_t pad,
                 std::size_t out_h, std::size_t out_w, Tensor& img);

// Elementwise map out-of-place.
Tensor map(const Tensor& t, float (*fn)(float));

// Clamp all elements into [lo, hi].
void clamp_(Tensor& t, float lo, float hi);

// Mean squared difference between two same-shaped tensors.
float mse(const Tensor& a, const Tensor& b);

// Max absolute difference (test helper, also used by convergence guards).
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace mdgan
