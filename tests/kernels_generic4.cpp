// "generic4": kernels_simd.inl built over GCC's generic 4-lane vectors, a
// stand-in for the NEON target, which cannot be built or run on x86. It
// has NEON's lane count, so the test binary checks the shared SIMD bodies'
// 4-lane register blocks and tails on any host. It is linked into the test
// binary only and is never part of the dispatch table (compiled() does not
// list it). Fused madds are __builtin_fmaf per lane, the same rounding as
// fma1, and this file is built with -ffp-contract=off like the real targets.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "reffil/tensor/kernels.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/quant.hpp"

namespace reffil::tensor::kern {
namespace generic4 {

using vfloat = float __attribute__((vector_size(16)));
using vint = std::int32_t __attribute__((vector_size(16)));
inline constexpr std::size_t kLanes = 4;

inline vfloat vload(const float* p) {
  vfloat v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void vstore(float* p, vfloat v) { std::memcpy(p, &v, sizeof v); }
inline vfloat vbroadcast(float x) { return vfloat{x, x, x, x}; }
inline vfloat vadd(vfloat a, vfloat b) { return a + b; }
inline vfloat vsub(vfloat a, vfloat b) { return a - b; }
inline vfloat vmul(vfloat a, vfloat b) { return a * b; }
// Second operand when either is NaN, like maxps/minps.
inline vfloat vmax(vfloat a, vfloat b) {
  for (std::size_t i = 0; i < kLanes; ++i) b[i] = a[i] > b[i] ? a[i] : b[i];
  return b;
}
inline vfloat vmin(vfloat a, vfloat b) {
  for (std::size_t i = 0; i < kLanes; ++i) b[i] = a[i] < b[i] ? a[i] : b[i];
  return b;
}
inline vfloat vfma(vfloat a, vfloat b, vfloat acc) {
  for (std::size_t i = 0; i < kLanes; ++i) {
    acc[i] = __builtin_fmaf(a[i], b[i], acc[i]);
  }
  return acc;
}
inline float fma1(float a, float b, float acc) {
  return __builtin_fmaf(a, b, acc);
}
inline vfloat vround_nearest(vfloat v) {
  for (std::size_t i = 0; i < kLanes; ++i) v[i] = std::nearbyint(v[i]);
  return v;
}
inline vfloat vpow2i(vfloat n) {
  vfloat out;
  for (std::size_t i = 0; i < kLanes; ++i) {
    const std::int32_t bits =
        (static_cast<std::int32_t>(std::lrintf(n[i])) + 127) << 23;
    std::memcpy(&out[i], &bits, sizeof bits);
  }
  return out;
}
inline void vtranspose(vfloat* r) {
  const vfloat t0 = __builtin_shuffle(r[0], r[1], vint{0, 4, 1, 5});
  const vfloat t1 = __builtin_shuffle(r[0], r[1], vint{2, 6, 3, 7});
  const vfloat t2 = __builtin_shuffle(r[2], r[3], vint{0, 4, 1, 5});
  const vfloat t3 = __builtin_shuffle(r[2], r[3], vint{2, 6, 3, 7});
  r[0] = __builtin_shuffle(t0, t2, vint{0, 1, 4, 5});
  r[1] = __builtin_shuffle(t0, t2, vint{2, 3, 6, 7});
  r[2] = __builtin_shuffle(t1, t3, vint{0, 1, 4, 5});
  r[3] = __builtin_shuffle(t1, t3, vint{2, 3, 6, 7});
}
/// Pairwise, the shape of the NEON reductions.
inline float vreduce_add(vfloat v) { return (v[0] + v[2]) + (v[1] + v[3]); }
inline float vreduce_max(vfloat v) {
  return std::max(std::max(v[0], v[2]), std::max(v[1], v[3]));
}

inline void q8_encode(const float* x, std::int8_t* q, float* scales,
                      std::size_t n) {
  detail::q8_encode(x, q, scales, n);
}
inline void q8_decode(const std::int8_t* q, const float* scales, float* out,
                      std::size_t n) {
  detail::q8_decode(q, scales, out, n);
}
inline void q8_axpy(float* y, float s, const std::int8_t* q,
                    const float* scales, std::size_t n) {
  detail::q8_axpy(y, s, q, scales, n);
}

#define REFFIL_KERN_ISA_NAME "generic4"
#include "reffil/tensor/kernels_simd.inl"
#undef REFFIL_KERN_ISA_NAME

}  // namespace generic4

const Kernels& generic4_table() { return generic4::kTable; }

}  // namespace reffil::tensor::kern
