// "scalar" dispatch target: the portable reference kernels, compiled with
// the project's baseline flags only. This target exists on every build and
// is the bitwise-determinism anchor — the cross-ISA equivalence suite
// measures every other target against it, and REFFIL_ISA=scalar pins a run
// to it for reproducibility across heterogeneous fleets.

#include "reffil/tensor/kernels.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/quant.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
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

/// Per tap row t of input channels [c0, c1), dwᵀ[t, co] streams the real
/// output pixels p ascending, adding x[t, p] * gyᵀ[p, co] across co.
void conv2d_dw_channels(const float* gy, const float* xp, float* dw,
                        std::size_t c0, std::size_t c1, const Conv2dGeom& g) {
  const std::size_t kk = g.kh * g.kw, taps = g.taps(), hw = g.hw(),
                    cout = g.cout, t0 = c0 * kk, nt = (c1 - c0) * kk;
  thread_local std::vector<std::size_t> off, pos;
  thread_local std::vector<float> gyt, dwt;
  off.resize(taps);
  pos.resize(hw);
  detail::conv_tap_offsets(g, off.data());
  detail::conv_positions(g, pos.data());
  gyt.resize(hw * cout);
  detail::transpose_into(gy, cout, hw, hw, gyt.data(), cout);
  dwt.assign(nt * cout, 0.0f);
  for (std::size_t r = 0; r < nt; ++r) {
    const float* src = xp + off[t0 + r];
    float* d = dwt.data() + r * cout;
    for (std::size_t p = 0; p < hw; ++p) {
      const float x = src[pos[p]];
      const float* gp = gyt.data() + p * cout;
      for (std::size_t co = 0; co < cout; ++co) d[co] += x * gp[co];
    }
  }
  detail::transpose_into(dwt.data(), nt, cout, cout, dw + t0, taps);
}

/// Each input pixel of channels [c0, c1) sums its valid taps in ascending
/// (ki, kj) order from 0; each tap value streams the output channels
/// ascending from 0, across the channels of the re-laid wr[t][co][c].
void conv2d_dx_channels(const float* w, const float* gy, float* din,
                        std::size_t c0, std::size_t c1, const Conv2dGeom& g) {
  const std::size_t kk = g.kh * g.kw, taps = g.taps(), hw = g.hw(),
                    cout = g.cout, cw = c1 - c0, s = g.stride;
  thread_local std::vector<float> wr, acc, v;
  wr.resize(kk * cout * cw);
  for (std::size_t co = 0; co < cout; ++co) {
    detail::transpose_into(w + co * taps + c0 * kk, cw, kk, kk,
                           wr.data() + co * cw, cout * cw);
  }
  acc.resize(cw);
  v.resize(cw);
  for (std::size_t i = 0; i < g.h; ++i) {
    for (std::size_t j = 0; j < g.w; ++j) {
      std::fill(acc.begin(), acc.end(), 0.0f);
      const std::size_t r = i + g.pad, q = j + g.pad;  // padded pixel
      for (std::size_t ki = 0; ki < g.kh; ++ki) {
        if (r < ki || (r - ki) % s != 0 || (r - ki) / s >= g.hout) continue;
        for (std::size_t kj = 0; kj < g.kw; ++kj) {
          if (q < kj || (q - kj) % s != 0 || (q - kj) / s >= g.wout) continue;
          const float* gp = gy + (r - ki) / s * g.wout + (q - kj) / s;
          const float* wt = wr.data() + (ki * g.kw + kj) * cout * cw;
          std::fill(v.begin(), v.end(), 0.0f);
          for (std::size_t co = 0; co < cout; ++co) {
            const float gv = gp[co * hw];
            const float* wc = wt + co * cw;
            for (std::size_t c = 0; c < cw; ++c) v[c] += wc[c] * gv;
          }
          for (std::size_t c = 0; c < cw; ++c) acc[c] += v[c];
        }
      }
      for (std::size_t c = 0; c < cw; ++c) {
        din[((c0 + c) * g.h + i) * g.w + j] = acc[c];
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
    &conv2d_dw_channels,
    &conv2d_dx_channels,
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
  g.span = stride == 1 ? (g.hout * g.wq + kConvSpanAlign - 1) /
                             kConvSpanAlign * kConvSpanAlign
                       : 0;
  g.padded = cin * stride * stride * g.hq * g.wq + g.span;
  return g;
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

void conv_positions(const kern::Conv2dGeom& g, std::size_t* pos) {
  for (std::size_t oi = 0; oi < g.hout; ++oi) {
    for (std::size_t oj = 0; oj < g.wout; ++oj) *pos++ = oi * g.wq + oj;
  }
}

void transpose_into(const float* src, std::size_t rows, std::size_t cols,
                    std::size_t src_ld, float* dst, std::size_t dst_ld) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      dst[c * dst_ld + r] = src[r * src_ld + c];
    }
  }
}

}  // namespace reffil::tensor::detail
