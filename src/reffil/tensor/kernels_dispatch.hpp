// Runtime CPU-feature-dispatched kernel table (DESIGN.md §12).
//
// Every hot inner loop of the tensor layer — the matmul row kernels, the
// blocked elementwise/axpy sweeps, the row-range softmax pair, and the
// direct conv2d forward, weight and input gradients — is reached through
// one table of function pointers resolved exactly once at startup. The
// binary carries every target the toolchain could compile (scalar always;
// AVX2 on x86-64; NEON on aarch64) and picks the best one the *running* CPU
// supports, so a single fat binary runs unmodified from a baseline VM to an
// AVX2 server.
//
// Determinism contract (per dispatch target):
//  * Within one target, results are a pure function of the inputs: the
//    parallel layer row/block-partitions the same table kernels the serial
//    path calls, so parallel == serial bitwise by construction, exactly as
//    before (DESIGN.md §6).
//  * The scalar target is bitwise-identical to the pre-dispatch kernels on
//    finite inputs (it IS those kernels, minus the skip-zero rule, which
//    never changed a finite result — see kernels.hpp).
//  * Across targets, matmul and softmax may differ by rounding (FMA
//    contraction, polynomial exp); the cross-ISA test suite bounds the
//    divergence at 1e-5 relative. The conv2d kernels follow the matmul
//    rule: within a target each is bitwise equal to lowering the input to
//    a [cin*kh*kw, hout*wout] column matrix and running that target's
//    matmul (the naive oracle of the kernel tests), without ever building
//    the column matrix. Elementwise kernels are bitwise-identical across
//    every target (no fused ops). The q8 codec kernels are
//    bitwise-identical across targets on finite inputs too (exact max
//    reduction, shared round-nearest-even, unfused accumulate — see
//    quant.hpp), which the compressed wire format relies on for cross-ISA
//    reproducibility.
//
// Selection order: the REFFIL_ISA environment variable ("scalar", "avx2",
// "neon") wins if set — an unknown name throws, a compiled-but-unsupported
// name falls back to scalar with a warning on stderr (the fat binary must
// still start on a baseline host) — otherwise the best target
// host_supports() accepts is chosen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace reffil::tensor::kern {

/// Conv2d geometry shared by the conv kernels and the autograd conv node.
/// Build it with conv2d_geom(); the kernels read every field.
///
/// The kernels read taps from a zero-padded copy of the input
/// (conv2d_pad_input) split into stride phases: padded pixel (ci, r, c)
/// lives in plane ((ci*stride + r%stride)*stride + c%stride), at row
/// r/stride and column c/stride of that hq x wq plane. Then the taps of one
/// kernel position (ci, ki, kj) for output (oi, oj) sit at
/// tap_offset(ci, ki, kj) + oi*wq + oj for every stride, so a run of
/// output columns is a run of contiguous floats. Output (oi, oj) maps to
/// "virtual position" oi*wq + oj. The SIMD forward at stride 1 may run
/// along virtual positions: the wq - wout columns past wout in each row and
/// everything past hout*wq up to `span` are computed and dropped, and the
/// copy ends in `span` zero floats so those reads stay in bounds. Every
/// other kernel, and every kernel at stride > 1, touches real output
/// positions only.
struct Conv2dGeom {
  std::size_t cin, h, w, cout, kh, kw, stride, pad;
  std::size_t hout, wout;
  std::size_t hq, wq;    ///< rows / columns of one phase plane
  std::size_t span;      ///< stride 1: hout*wq rounded up to kConvSpanAlign;
                         ///< stride > 1: 0
  std::size_t padded;    ///< floats in the padded copy, trailing zeros included

  std::size_t taps() const { return cin * kh * kw; }
  std::size_t hw() const { return hout * wout; }
  std::size_t tap_offset(std::size_t ci, std::size_t ki, std::size_t kj) const {
    return ((ci * stride + ki % stride) * stride + kj % stride) * hq * wq +
           (ki / stride) * wq + kj / stride;
  }
};

/// Virtual output positions are computed in whole blocks of this many
/// floats (two vectors of the widest target).
inline constexpr std::size_t kConvSpanAlign = 16;

/// Geometry of a conv over input[cin, h, w] with cout output channels, a
/// kh x kw kernel, `stride` (> 0) and zero padding `pad` on every side.
/// The padded input must cover the kernel (h + 2*pad >= kh, likewise w).
Conv2dGeom conv2d_geom(std::size_t cin, std::size_t h, std::size_t w,
                       std::size_t cout, std::size_t kh, std::size_t kw,
                       std::size_t stride, std::size_t pad);

/// Write the padded, phase-split copy of input[cin, h, w] into
/// xp[g.padded]; every element is written. Pure data movement, shared by
/// every target.
void conv2d_pad_input(const float* in, float* xp, const Conv2dGeom& g);

/// One dispatch target. All pointers are non-null in every registered
/// table. Row-range kernels take [r0, r1) so the parallel layer can hand
/// each worker a disjoint slice of the same code path the serial caller
/// uses.
struct Kernels {
  const char* name;

  /// Rows [r0, r1) of out[m, n] += a[m, K] * b[K, n]; `out` rows zeroed on
  /// entry. Per output element, k streams in increasing order into a single
  /// accumulator (fused or not is the target's choice, but fixed per
  /// target).
  void (*matmul_rows_nn)(const float* a, const float* b, float* out,
                         std::size_t r0, std::size_t r1, std::size_t K,
                         std::size_t n);
  /// Rows [r0, r1) of out[m, n] += a[m, K] * b[n, K]^T.
  void (*matmul_rows_nt)(const float* a, const float* b, float* out,
                         std::size_t r0, std::size_t r1, std::size_t K,
                         std::size_t n);
  /// Rows [r0, r1) of out[m, n] += a[K, m]^T * b[K, n].
  void (*matmul_rows_tn)(const float* a, const float* b, float* out,
                         std::size_t r0, std::size_t r1, std::size_t K,
                         std::size_t m, std::size_t n);

  /// y[i] += x[i] over [lo, hi). Bitwise-identical across targets.
  void (*add)(float* y, const float* x, std::size_t lo, std::size_t hi);
  /// y[i] += s * x[i] over [lo, hi) — mul-then-add in every target (never
  /// fused), so results are partition-invariant and bitwise-identical
  /// across targets.
  void (*axpy)(float* y, float s, const float* x, std::size_t lo,
               std::size_t hi);
  /// y[i] *= s over [lo, hi). Bitwise-identical across targets.
  void (*scale)(float* y, float s, std::size_t lo, std::size_t hi);

  /// Rows [r0, r1) of dst = softmax(src) along n. Degenerate rows whose
  /// maximum is -inf yield the uniform distribution 1/n; rows containing
  /// NaN yield NaN (see DESIGN.md §12).
  void (*softmax_rows)(const float* src, float* dst, std::size_t r0,
                       std::size_t r1, std::size_t n);
  /// Rows [r0, r1) of dst = log_softmax(src); degenerate all -inf rows
  /// yield -log(n) (the log of the uniform row, so exp∘log_softmax ==
  /// softmax holds on every input).
  void (*log_softmax_rows)(const float* src, float* dst, std::size_t r0,
                           std::size_t r1, std::size_t n);

  /// Direct conv2d forward: rows [co0, co1) of out[cout, hout*wout] = W * x
  /// (no bias), with `xp` the conv2d_pad_input copy of the input and `w` the
  /// [cout, cin*kh*kw] weight; every element of those rows is written. Each
  /// output element is one accumulation chain over the column-matrix rows
  /// (ci, ki, kj) ascending from 0, padding taps included as madds against
  /// 0, so it matches im2col + matmul_rows_nn of this target bitwise for any
  /// range split.
  void (*conv2d_rows)(const float* xp, const float* w, float* out,
                      std::size_t co0, std::size_t co1, const Conv2dGeom& g);
  /// Input channels [c0, c1) of dw[cout, cin*kh*kw] = gy * colᵀ, with `gy`
  /// the [cout, hout*wout] output gradient and `xp` the conv2d_pad_input
  /// copy; every dw column of those channels is written. Each element is one
  /// chain over the real output pixels ascending from 0, so it matches
  /// matmul_rows_nt(gy, col) of this target bitwise for any channel split.
  void (*conv2d_dw_channels)(const float* gy, const float* xp, float* dw,
                             std::size_t c0, std::size_t c1,
                             const Conv2dGeom& g);
  /// Channels [c0, c1) of din[cin, h, w] = col2im(Wᵀ * gy) as a gather:
  /// each input pixel sums its valid taps in ascending (ki, kj) order from
  /// 0, and each tap value is one chain over the output channels ascending
  /// from 0 — the order matmul_rows_tn and col2im's (ki, kj, oi, oj)
  /// scatter produce, so it matches that lowering bitwise for any channel
  /// split. Every element of those channels is written.
  void (*conv2d_dx_channels)(const float* w, const float* gy, float* din,
                             std::size_t c0, std::size_t c1,
                             const Conv2dGeom& g);

  // Q8 block codec (quant.hpp): int8 blocks of quant::kQ8Block with one f32
  // scale each. Bitwise-identical across targets on finite inputs.

  /// Quantize x[0..n): scales[b] = amax_b/127, q[i] = RNE(x[i] * 127/amax_b).
  void (*q8_encode)(const float* x, std::int8_t* q, float* scales,
                    std::size_t n);
  /// out[i] = scales[i / kQ8Block] * q[i].
  void (*q8_decode)(const std::int8_t* q, const float* scales, float* out,
                    std::size_t n);
  /// y[i] += (s * scales[i / kQ8Block]) * q[i] — dequant-free accumulate
  /// (one scalar multiply per block, unfused mul-then-add per element).
  void (*q8_axpy)(float* y, float s, const std::int8_t* q, const float* scales,
                  std::size_t n);
};

/// The table selected for this process. Resolved once on first use
/// (REFFIL_ISA override, else best supported); stable for the process
/// lifetime.
const Kernels& active();

/// active().name — what `reffil_run --json` reports as "isa".
const char* active_name();

/// Look up a compiled-in target by name ("scalar" | "avx2" | "neon").
/// Returns nullptr when the name is unknown or the target was not compiled
/// into this binary. The result may still fail host_supports().
const Kernels* by_name(std::string_view name);

/// True when the running CPU can execute this target's code.
bool host_supports(const Kernels& k);

/// Every target compiled into this binary, scalar first.
std::vector<const Kernels*> compiled();

/// compiled() filtered by host_supports() — the targets the cross-ISA
/// equivalence suite can actually run on this machine.
std::vector<const Kernels*> runnable();

}  // namespace reffil::tensor::kern
