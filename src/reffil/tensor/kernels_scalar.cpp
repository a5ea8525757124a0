// "scalar" dispatch target: the portable reference kernels, compiled with
// the project's baseline flags only. This target exists on every build and
// is the bitwise-determinism anchor — the cross-ISA equivalence suite
// measures every other target against it, and REFFIL_ISA=scalar pins a run
// to it for reproducibility across heterogeneous fleets.

#include "reffil/tensor/kernels.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/quant.hpp"
#include "reffil/util/prof.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace reffil::tensor::kern {

namespace {

void conv2d_rows(const float* xp, const float* w, float* out, std::size_t co0,
                 std::size_t co1, const Conv2dGeom& g) {
  const std::size_t taps = g.taps(), hw = g.hw();
  thread_local std::vector<std::size_t> off;
  off.resize(taps);
  detail::conv_tap_offsets(g, off.data());
  for (std::size_t co = co0; co < co1; ++co) {
    float* orow = out + co * hw;
    std::fill(orow, orow + hw, 0.0f);
    for (std::size_t t = 0; t < taps; ++t) {
      const float wt = w[co * taps + t];
      const float* src = xp + off[t];
      for (std::size_t oi = 0; oi < g.hout; ++oi) {
        float* o = orow + oi * g.wout;
        const float* x = src + oi * g.wq;
        for (std::size_t oj = 0; oj < g.wout; ++oj) o[oj] += wt * x[oj];
      }
    }
  }
}

constexpr Kernels kScalarTable = {
    "scalar",
    &detail::matmul_rows_nn,
    &detail::matmul_rows_nt,
    &detail::matmul_rows_tn,
    &detail::add_span,
    &detail::axpy_span,
    &detail::scale_span,
    &detail::softmax_rows,
    &detail::log_softmax_rows,
    &conv2d_rows,
    &detail::q8_encode,
    &detail::q8_decode,
    &detail::q8_axpy,
};

}  // namespace

const Kernels* scalar_table() { return &kScalarTable; }

Conv2dGeom conv2d_geom(std::size_t cin, std::size_t h, std::size_t w,
                       std::size_t cout, std::size_t kh, std::size_t kw,
                       std::size_t stride, std::size_t pad) {
  Conv2dGeom g{};
  g.cin = cin;
  g.h = h;
  g.w = w;
  g.cout = cout;
  g.kh = kh;
  g.kw = kw;
  g.stride = stride;
  g.pad = pad;
  g.hout = (h + 2 * pad - kh) / stride + 1;
  g.wout = (w + 2 * pad - kw) / stride + 1;
  // Only padded rows (hout - 1) * stride + kh and columns likewise are ever
  // read; each phase plane holds its share of them.
  g.hq = g.hout - 1 + (kh + stride - 1) / stride;
  g.wq = g.wout - 1 + (kw + stride - 1) / stride;
  g.span = (g.hout * g.wq + kConvSpanAlign - 1) / kConvSpanAlign *
           kConvSpanAlign;
  g.padded = cin * stride * stride * g.hq * g.wq + g.span;
  return g;
}

void conv2d_dw_channels(const Kernels& kt, const float* gy, const float* xp,
                        float* dw, std::size_t c0, std::size_t c1,
                        const Conv2dGeom& g) {
  // k runs over virtual positions oi*wq + oj. At the wq - wout dropped
  // columns of each row both gyv and the tile hold 0, so those steps add
  // +0 * 0, which leaves every accumulator (never -0: chains start at +0)
  // bitwise unchanged, NaN and Inf included.
  const std::size_t kk = g.kh * g.kw, cout = g.cout, vn = g.hout * g.wq;
  const std::uint64_t tile_bytes = (kk * vn + vn * cout + kk * cout) *
                                   sizeof(float);
  thread_local std::vector<float> gyv, tile, dwt;
  gyv.assign(vn * cout, 0.0f);
  for (std::size_t co = 0; co < cout; ++co) {
    const float* src = gy + co * g.hw();
    for (std::size_t oi = 0; oi < g.hout; ++oi) {
      float* dst = gyv.data() + oi * g.wq * cout + co;
      for (std::size_t oj = 0; oj < g.wout; ++oj) {
        dst[oj * cout] = src[oi * g.wout + oj];
      }
    }
  }
  tile.resize(kk * vn);
  for (std::size_t c = c0; c < c1; ++c) {
    detail::conv_gather_channel(xp, c, tile.data(), g);
    dwt.assign(kk * cout, 0.0f);
    {
      obs::prof::Span span("matmul", tile_bytes);
      kt.matmul_rows_nn(tile.data(), gyv.data(), dwt.data(), 0, kk, vn, cout);
    }
    for (std::size_t co = 0; co < cout; ++co) {
      float* dst = dw + co * g.taps() + c * kk;
      for (std::size_t t = 0; t < kk; ++t) dst[t] = dwt[t * cout + co];
    }
  }
}

void conv2d_dx_channels(const Kernels& kt, const float* w, const float* gy,
                        float* din, std::size_t c0, std::size_t c1,
                        const Conv2dGeom& g) {
  const std::size_t kk = g.kh * g.kw, hw = g.hw();
  const std::uint64_t tile_bytes =
      (g.cout * kk + g.cout * hw + kk * hw) * sizeof(float);
  thread_local std::vector<float> tile;
  for (std::size_t c = c0; c < c1; ++c) {
    tile.assign(kk * hw, 0.0f);
    {
      obs::prof::Span span("matmul_tn", tile_bytes);
      kt.matmul_rows_tn(w + c * kk, gy, tile.data(), 0, kk, g.cout, g.taps(),
                        hw);
    }
    float* din_c = din + c * g.h * g.w;
    std::fill(din_c, din_c + g.h * g.w, 0.0f);
    detail::conv_scatter_channel(tile.data(), din_c, g);
  }
}

// Conv data movement — the single shared definitions every dispatch table
// reaches (see the declaration comment in kernels.hpp for why they must live
// out-of-line in exactly one baseline-flags TU).

void conv2d_pad_input(const float* in, float* xp, const Conv2dGeom& g) {
  const std::size_t s = g.stride, plane = g.hq * g.wq;
  std::fill(xp, xp + g.padded, 0.0f);
  for (std::size_t c = 0; c < g.cin; ++c) {
    for (std::size_t i = 0; i < g.h; ++i) {
      const std::size_t r = i + g.pad;
      if (r / s >= g.hq) break;  // rows no tap reads
      const float* irow = in + (c * g.h + i) * g.w;
      float* prow = xp + (c * s + r % s) * s * plane + (r / s) * g.wq;
      if (s == 1) {
        std::memcpy(prow + g.pad, irow,
                    std::min(g.w, g.wq - g.pad) * sizeof(float));
        continue;
      }
      // Column phase ph holds padded columns cq * s + ph.
      for (std::size_t ph = 0; ph < s; ++ph) {
        float* dst = prow + ph * plane;
        std::size_t cq = ph >= g.pad ? 0 : (g.pad - ph + s - 1) / s;
        for (std::size_t j = cq * s + ph - g.pad; cq < g.wq && j < g.w;
             ++cq, j += s) {
          dst[cq] = irow[j];
        }
      }
    }
  }
}

}  // namespace reffil::tensor::kern

namespace reffil::tensor::detail {

void conv_tap_offsets(const kern::Conv2dGeom& g, std::size_t* off) {
  for (std::size_t c = 0; c < g.cin; ++c) {
    for (std::size_t ki = 0; ki < g.kh; ++ki) {
      for (std::size_t kj = 0; kj < g.kw; ++kj) {
        *off++ = g.tap_offset(c, ki, kj);
      }
    }
  }
}

void conv_gather_channel(const float* xp, std::size_t c, float* tile,
                         const kern::Conv2dGeom& g) {
  const std::size_t vn = g.hout * g.wq, drop = g.wq - g.wout;
  for (std::size_t ki = 0; ki < g.kh; ++ki) {
    for (std::size_t kj = 0; kj < g.kw; ++kj, tile += vn) {
      std::memcpy(tile, xp + g.tap_offset(c, ki, kj), vn * sizeof(float));
      for (std::size_t oi = 0; oi < g.hout; ++oi) {
        std::fill_n(tile + oi * g.wq + g.wout, drop, 0.0f);
      }
    }
  }
}

namespace {

/// Output indices [lo, hi) whose tap k lands inside [0, n) of the input:
/// 0 <= o * s + k - pad < n.
std::pair<std::size_t, std::size_t> taps_inside(std::size_t k, std::size_t pad,
                                                std::size_t n, std::size_t nout,
                                                std::size_t s) {
  const std::size_t lo = k >= pad ? 0 : (pad - k + s - 1) / s;
  const std::size_t hi =
      n + pad <= k ? 0 : std::min(nout, (n + pad - k + s - 1) / s);
  return {std::min(lo, hi), hi};
}

}  // namespace

void conv_scatter_channel(const float* tile, float* din_c,
                          const kern::Conv2dGeom& g) {
  const std::size_t hw = g.hw(), s = g.stride;
  for (std::size_t ki = 0; ki < g.kh; ++ki) {
    const auto [oi0, oi1] = taps_inside(ki, g.pad, g.h, g.hout, s);
    for (std::size_t kj = 0; kj < g.kw; ++kj) {
      const auto [oj0, oj1] = taps_inside(kj, g.pad, g.w, g.wout, s);
      const float* src = tile + (ki * g.kw + kj) * hw;
      for (std::size_t oi = oi0; oi < oi1; ++oi) {
        const float* __restrict srow = src + oi * g.wout;
        float* __restrict irow = din_c + (oi * s + ki - g.pad) * g.w;
        if (s == 1) {
          float* __restrict d = irow + oj0 + kj - g.pad;
          for (std::size_t oj = oj0; oj < oj1; ++oj) d[oj - oj0] += srow[oj];
        } else {
          for (std::size_t oj = oj0; oj < oj1; ++oj) {
            irow[oj * s + kj - g.pad] += srow[oj];
          }
        }
      }
    }
  }
}

}  // namespace reffil::tensor::detail
