// Parity of the direct conv2d kernels (kernels_dispatch.hpp) with the
// im2col + matmul lowering they replace.
//
// The oracle lowers the input to the full [cin*kh*kw, hout*wout] column
// matrix with a naive per-tap loop, then runs the SAME target's matmul row
// kernels: forward = W · col, dW = gy · colᵀ, dX = col2im(Wᵀ · gy) with a
// naive (c, ki, kj, oi, oj) scatter. The targets are every runnable one
// plus a 4-lane stand-in for NEON built from the same SIMD bodies. Every
// product element of the direct kernels streams k upward in one chain from
// 0, padding taps included, and every dX pixel adds its taps in the
// scatter's order, so each target must match its own oracle bitwise
// (memcmp) — with NaN, Inf and -0.0 planted in input, weights and output
// gradient. The kernels also write every element of their range (outputs
// start as garbage here), and any row/channel split, and the parallel
// autograd path above the matmul fan-out threshold, reproduce the serial
// result bitwise.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "reffil/autograd/ops.hpp"
#include "reffil/autograd/variable.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/tensor/parallel.hpp"
#include "reffil/tensor/tensor.hpp"
#include "reffil/util/rng.hpp"

namespace reffil::tensor::kern {
// kernels_generic4.cpp: the shared SIMD bodies over 4-lane generic vectors.
const Kernels& generic4_table();
}  // namespace reffil::tensor::kern

namespace AG = reffil::autograd;
namespace T = reffil::tensor;
namespace kern = reffil::tensor::kern;

namespace {

constexpr float kGarbage = -777.25f;

/// Every runnable dispatch target, plus the test-only 4-lane stand-in for
/// NEON so the SIMD bodies' 4-lane blocks and tails run on any host.
std::vector<const kern::Kernels*> conv_targets() {
  std::vector<const kern::Kernels*> out = kern::runnable();
  out.push_back(&kern::generic4_table());
  return out;
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  reffil::util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

/// Plant NaN, +Inf, -Inf and -0.0 at a few spread-out positions.
void plant_specials(std::vector<float>& v, std::size_t salt) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0f,
                            -0.0f};
  for (std::size_t i = 0; i < 5 && i < v.size(); ++i) {
    v[(salt * 7 + i * (v.size() / 5 + 3)) % v.size()] = specials[i];
  }
}

/// memcmp equality, except that any NaN matches any NaN: which NaN an FMA
/// returns when several operands are NaN (or it makes a fresh one from
/// Inf * 0) follows the operand order of the instruction form the compiler
/// picked, which differs between the register block and the scalar tail
/// even in the matmul kernels alone. Everything else, -0.0 and Inf
/// included, must match bit for bit.
void expect_memeq(const std::vector<float>& got, const std::vector<float>& ref,
                  const char* what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  if (std::memcmp(got.data(), ref.data(), got.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(ref[i])) continue;
    std::uint32_t a, b;
    std::memcpy(&a, &got[i], 4);
    std::memcpy(&b, &ref[i], 4);
    ASSERT_EQ(a, b) << what << " flat index " << i << ": " << got[i]
                    << " vs " << ref[i];
  }
}

struct ConvCase {
  std::size_t cin, h, w, cout, k, stride, pad;
  std::string name() const {
    return "cin=" + std::to_string(cin) + " h=" + std::to_string(h) +
           " w=" + std::to_string(w) + " cout=" + std::to_string(cout) +
           " k=" + std::to_string(k) + " s=" + std::to_string(stride) +
           " p=" + std::to_string(pad);
  }
};

/// ResNetMini's five conv layers (k3 p1; nn/backbone.cpp): the stem,
/// block1, down1, block2 and down2. They reach the 16- and 32-wide output
/// channel blocks, and down2 (a 4x4 output, for which virtual positions
/// would compute 32 columns) pins the stride-2 real-position path.
const ConvCase kResNetMiniLayers[] = {{1, 16, 16, 8, 3, 1, 1},
                                      {8, 16, 16, 8, 3, 1, 1},
                                      {8, 16, 16, 16, 3, 2, 1},
                                      {16, 8, 8, 16, 3, 1, 1},
                                      {16, 8, 8, 32, 3, 2, 1}};

/// Kernel 1/2/3/5 x stride 1/2 x pad 0/1/2 over non-square inputs, cin = 1,
/// cout not a multiple of 4 and wout not a multiple of 8 among them, and
/// 4 channels in and out (exactly one vector of the 4-lane targets); then
/// the ResNetMini layers.
std::vector<ConvCase> conv_cases() {
  const ConvCase shapes[] = {{1, 7, 9, 5, 0, 0, 0},
                             {3, 10, 6, 8, 0, 0, 0},
                             {2, 13, 17, 6, 0, 0, 0},
                             {4, 9, 11, 4, 0, 0, 0}};
  std::vector<ConvCase> out;
  for (const ConvCase& s : shapes) {
    for (const std::size_t k : {1u, 2u, 3u, 5u}) {
      for (const std::size_t stride : {1u, 2u}) {
        for (const std::size_t pad : {0u, 1u, 2u}) {
          if (s.h + 2 * pad < k || s.w + 2 * pad < k) continue;
          out.push_back({s.cin, s.h, s.w, s.cout, k, stride, pad});
        }
      }
    }
  }
  out.insert(out.end(), std::begin(kResNetMiniLayers),
             std::end(kResNetMiniLayers));
  return out;
}

/// Naive im2col: col[(c*kh + ki)*kw + kj, oi*wout + oj], padding as +0.
std::vector<float> naive_im2col(const std::vector<float>& in,
                                const kern::Conv2dGeom& g) {
  const std::size_t hw = g.hw();
  std::vector<float> col(g.taps() * hw);
  for (std::size_t c = 0; c < g.cin; ++c) {
    for (std::size_t ki = 0; ki < g.kh; ++ki) {
      for (std::size_t kj = 0; kj < g.kw; ++kj) {
        for (std::size_t oi = 0; oi < g.hout; ++oi) {
          for (std::size_t oj = 0; oj < g.wout; ++oj) {
            const std::ptrdiff_t ii =
                static_cast<std::ptrdiff_t>(oi * g.stride + ki) -
                static_cast<std::ptrdiff_t>(g.pad);
            const std::ptrdiff_t jj =
                static_cast<std::ptrdiff_t>(oj * g.stride + kj) -
                static_cast<std::ptrdiff_t>(g.pad);
            float v = 0.0f;
            if (ii >= 0 && ii < static_cast<std::ptrdiff_t>(g.h) && jj >= 0 &&
                jj < static_cast<std::ptrdiff_t>(g.w)) {
              v = in[(c * g.h + static_cast<std::size_t>(ii)) * g.w +
                     static_cast<std::size_t>(jj)];
            }
            col[((c * g.kh + ki) * g.kw + kj) * hw + oi * g.wout + oj] = v;
          }
        }
      }
    }
  }
  return col;
}

/// Naive col2im in (c, ki, kj, oi, oj) order, dropping padding taps.
std::vector<float> naive_col2im(const std::vector<float>& dcol,
                                const kern::Conv2dGeom& g) {
  const std::size_t hw = g.hw();
  std::vector<float> din(g.cin * g.h * g.w, 0.0f);
  for (std::size_t c = 0; c < g.cin; ++c) {
    for (std::size_t ki = 0; ki < g.kh; ++ki) {
      for (std::size_t kj = 0; kj < g.kw; ++kj) {
        for (std::size_t oi = 0; oi < g.hout; ++oi) {
          for (std::size_t oj = 0; oj < g.wout; ++oj) {
            const std::ptrdiff_t ii =
                static_cast<std::ptrdiff_t>(oi * g.stride + ki) -
                static_cast<std::ptrdiff_t>(g.pad);
            const std::ptrdiff_t jj =
                static_cast<std::ptrdiff_t>(oj * g.stride + kj) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(g.h) || jj < 0 ||
                jj >= static_cast<std::ptrdiff_t>(g.w)) {
              continue;
            }
            din[(c * g.h + static_cast<std::size_t>(ii)) * g.w +
                static_cast<std::size_t>(jj)] +=
                dcol[((c * g.kh + ki) * g.kw + kj) * hw + oi * g.wout + oj];
          }
        }
      }
    }
  }
  return din;
}

struct ConvData {
  kern::Conv2dGeom g;
  std::vector<float> in, w, gy, xp;
};

ConvData make_data(const ConvCase& c, std::uint64_t seed) {
  ConvData d;
  d.g = kern::conv2d_geom(c.cin, c.h, c.w, c.cout, c.k, c.k, c.stride, c.pad);
  d.in = random_vec(c.cin * c.h * c.w, seed);
  d.w = random_vec(c.cout * d.g.taps(), seed + 1);
  d.gy = random_vec(c.cout * d.g.hw(), seed + 2);
  plant_specials(d.in, seed);
  plant_specials(d.w, seed + 1);
  plant_specials(d.gy, seed + 2);
  // Exactly g.padded floats, so ASan flags any read past the copy.
  d.xp.assign(d.g.padded, kGarbage);
  kern::conv2d_pad_input(d.in.data(), d.xp.data(), d.g);
  return d;
}

struct ConvResult {
  std::vector<float> out, dw, din;
};

ConvResult oracle(const kern::Kernels& t, const ConvData& d) {
  const kern::Conv2dGeom& g = d.g;
  const std::size_t taps = g.taps(), hw = g.hw();
  const std::vector<float> col = naive_im2col(d.in, g);
  ConvResult r;
  r.out.assign(g.cout * hw, 0.0f);
  t.matmul_rows_nn(d.w.data(), col.data(), r.out.data(), 0, g.cout, taps, hw);
  r.dw.assign(g.cout * taps, 0.0f);
  t.matmul_rows_nt(d.gy.data(), col.data(), r.dw.data(), 0, g.cout, hw, taps);
  std::vector<float> dcol(taps * hw, 0.0f);
  t.matmul_rows_tn(d.w.data(), d.gy.data(), dcol.data(), 0, taps, g.cout, taps,
                   hw);
  r.din = naive_col2im(dcol, g);
  return r;
}

/// Run the direct kernels over the given split points of [0, cout) for
/// forward and of [0, cin) for dW and dX; outputs start as garbage.
ConvResult direct(const kern::Kernels& t, const ConvData& d,
                  const std::vector<std::size_t>& cuts) {
  const kern::Conv2dGeom& g = d.g;
  ConvResult r;
  r.out.assign(g.cout * g.hw(), kGarbage);
  r.dw.assign(g.cout * g.taps(), kGarbage);
  r.din.assign(g.cin * g.h * g.w, kGarbage);
  const auto ranges = [&](std::size_t n, auto&& fn) {
    std::size_t lo = 0;
    for (const std::size_t c : cuts) {
      if (c > lo && c < n) {
        fn(lo, c);
        lo = c;
      }
    }
    fn(lo, n);
  };
  ranges(g.cout, [&](std::size_t lo, std::size_t hi) {
    t.conv2d_rows(d.xp.data(), d.w.data(), r.out.data(), lo, hi, g);
  });
  ranges(g.cin, [&](std::size_t lo, std::size_t hi) {
    t.conv2d_dw_channels(d.gy.data(), d.xp.data(), r.dw.data(), lo, hi, g);
    t.conv2d_dx_channels(d.w.data(), d.gy.data(), r.din.data(), lo, hi, g);
  });
  return r;
}

}  // namespace

TEST(ConvKernels, GeometryMatchesTheConvFormula) {
  const kern::Conv2dGeom g = kern::conv2d_geom(3, 10, 7, 5, 3, 2, 2, 1);
  EXPECT_EQ(g.hout, 5u);  // (10 + 2 - 3) / 2 + 1
  EXPECT_EQ(g.wout, 4u);  // (7 + 2 - 2) / 2 + 1
  EXPECT_EQ(g.taps(), 18u);
  // Stride > 1 computes real positions only: no virtual span, no trailing
  // zeros after the phase planes.
  EXPECT_EQ(g.span, 0u);
  EXPECT_EQ(g.padded, 3u * 2 * 2 * g.hq * g.wq);
  const kern::Conv2dGeom g1 = kern::conv2d_geom(3, 10, 7, 5, 3, 2, 1, 1);
  EXPECT_EQ(g1.span % kern::kConvSpanAlign, 0u);
  EXPECT_GE(g1.span, g1.hout * g1.wq);
}

TEST(ConvKernels, PaddedCopyHoldsEveryTapAtItsOffset) {
  for (const ConvCase& c : conv_cases()) {
    SCOPED_TRACE(c.name());
    const ConvData d = make_data(c, 3);
    const std::vector<float> col = naive_im2col(d.in, d.g);
    for (std::size_t t = 0; t < d.g.taps(); ++t) {
      const std::size_t ci = t / (d.g.kh * d.g.kw);
      const std::size_t ki = (t / d.g.kw) % d.g.kh, kj = t % d.g.kw;
      const std::size_t off = d.g.tap_offset(ci, ki, kj);
      for (std::size_t oi = 0; oi < d.g.hout; ++oi) {
        for (std::size_t oj = 0; oj < d.g.wout; ++oj) {
          const float a = d.xp[off + oi * d.g.wq + oj];
          const float b = col[t * d.g.hw() + oi * d.g.wout + oj];
          ASSERT_EQ(std::memcmp(&a, &b, sizeof(float)), 0)
              << "tap " << t << " at (" << oi << ", " << oj << ")";
        }
      }
    }
    // The trailing zeros the virtual positions may read past the planes.
    for (std::size_t i = d.g.padded - d.g.span; i < d.g.padded; ++i) {
      ASSERT_EQ(d.xp[i], 0.0f) << i;
    }
  }
}

TEST(ConvKernels, ForwardDwDxBitwiseMatchIm2colMatmulOnEveryTarget) {
  std::uint64_t seed = 11;
  for (const ConvCase& c : conv_cases()) {
    const ConvData d = make_data(c, seed++);
    for (const kern::Kernels* t : conv_targets()) {
      SCOPED_TRACE(std::string(t->name) + " " + c.name());
      const ConvResult ref = oracle(*t, d);
      const ConvResult got = direct(*t, d, {});
      expect_memeq(got.out, ref.out, "forward");
      expect_memeq(got.dw, ref.dw, "dW");
      expect_memeq(got.din, ref.din, "dX");
    }
  }
}

TEST(ConvKernels, RowAndChannelSplitsAreBitwiseInvariant) {
  // The autograd node hands pool workers disjoint [lo, hi) slices; any split
  // — including single rows that miss the 4-row register block — must
  // reproduce the whole-range call.
  std::uint64_t seed = 101;
  for (const ConvCase& c : {ConvCase{3, 9, 11, 7, 3, 1, 1},
                            ConvCase{2, 12, 10, 6, 3, 2, 1},
                            ConvCase{5, 6, 6, 9, 1, 2, 0}}) {
    const ConvData d = make_data(c, seed++);
    for (const kern::Kernels* t : conv_targets()) {
      SCOPED_TRACE(std::string(t->name) + " " + c.name());
      const ConvResult whole = direct(*t, d, {});
      const ConvResult split = direct(*t, d, {1, 2, 5});
      expect_memeq(split.out, whole.out, "forward split");
      expect_memeq(split.dw, whole.dw, "dW split");
      expect_memeq(split.din, whole.din, "dX split");
    }
  }
}

TEST(ConvKernels, ParallelAutogradConvMatchesSerialAboveThreshold) {
  // 32 x 144 x 1024 multiply-adds: past kMatmulFlopThreshold, so forward,
  // dW and dX all fan out on the global pool when it has workers.
  const std::size_t cin = 16, cout = 32, side = 32;
  ASSERT_GE(cout * cin * 9 * side * side,
            T::parallel::kMatmulFlopThreshold);
  reffil::util::Rng rng(5);
  const T::Tensor x = T::randn({cin, side, side}, rng);
  const T::Tensor w = T::randn({cout, cin * 9}, rng, 0.0f, 0.1f);
  const T::Tensor b = T::randn({cout}, rng);
  const auto run = [&] {
    auto xv = AG::parameter(x);
    auto wv = AG::parameter(w);
    auto bv = AG::parameter(b);
    auto y = AG::conv2d(xv, wv, bv, 3, 3, 1, 1);
    AG::backward(AG::sum_all(AG::mul(y, y)));
    return std::vector<std::vector<float>>{
        std::vector<float>(y->value().begin(), y->value().end()),
        std::vector<float>(xv->grad().begin(), xv->grad().end()),
        std::vector<float>(wv->grad().begin(), wv->grad().end()),
        std::vector<float>(bv->grad().begin(), bv->grad().end())};
  };
  const bool was = T::parallel::enabled();
  T::parallel::set_enabled(true);
  const auto parallel = run();
  T::parallel::set_enabled(false);
  const auto serial = run();
  T::parallel::set_enabled(was);
  const char* names[] = {"forward", "dX", "dW", "dB"};
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_memeq(parallel[i], serial[i], names[i]);
  }
}
