#include "tensor/activations.hh"

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ccsa
{
namespace kernels
{

namespace
{

// Cephes expf: clamp, range-reduce by n = floor(x log2 e + 1/2) with
// ln 2 split in two (C1 exact in float), degree-5 polynomial, 2^n.
constexpr float kExpLo = -87.0f;
constexpr float kExpHi = 88.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

// tanh: 13/6 rational (odd numerator, even denominator). Inputs past
// +-kTanhClamp evaluate to +-1; below kTanhTiny tanh(x) rounds to x.
constexpr float kTanhClamp = 7.90531110763549805f;
constexpr float kTanhTiny = 0.0004f;
constexpr float kTanhA1 = 4.89352455891786e-03f;
constexpr float kTanhA3 = 6.37261928875436e-04f;
constexpr float kTanhA5 = 1.48572235717979e-05f;
constexpr float kTanhA7 = 5.12229709037114e-08f;
constexpr float kTanhA9 = -8.60467152213735e-11f;
constexpr float kTanhA11 = 2.00018790482477e-13f;
constexpr float kTanhA13 = -2.76076847742355e-16f;
constexpr float kTanhB0 = 4.89352518554385e-03f;
constexpr float kTanhB2 = 2.26843463243900e-03f;
constexpr float kTanhB4 = 1.18534705686654e-04f;
constexpr float kTanhB6 = 1.19825839466702e-06f;

// Scalar images of the SSE2 instructions a lane executes, with the
// instructions' exact semantics on NaN and out-of-range inputs.

/** maxps: a > b ? a : b (the second operand when unordered). */
inline float
maxLane(float a, float b)
{
    return a > b ? a : b;
}

/** minps: a < b ? a : b (the second operand when unordered). */
inline float
minLane(float a, float b)
{
    return a < b ? a : b;
}

/** cvttps2dq: truncate, INT_MIN for NaN and out-of-range values. */
inline std::int32_t
truncLane(float f)
{
    if (!(f > -2147483904.0f && f < 2147483648.0f))
        return INT_MIN;
    return static_cast<std::int32_t>(f);
}

/** 2^n as float bits, wrapping like paddd + pslld. */
inline float
pow2Lane(std::int32_t n)
{
    std::uint32_t bits = (static_cast<std::uint32_t>(n) + 127u) << 23;
    float out;
    std::memcpy(&out, &bits, sizeof out);
    return out;
}

inline float
expScalar(float x)
{
    x = maxLane(kExpLo, x);
    x = minLane(kExpHi, x);
    float fx = x * kLog2e + 0.5f;
    float t = static_cast<float>(truncLane(fx));
    fx = t - (t > fx ? 1.0f : 0.0f); // floor
    x = x - fx * kLn2Hi;
    x = x - fx * kLn2Lo;
    float z = x * x;
    float y = kExpP0;
    y = y * x + kExpP1;
    y = y * x + kExpP2;
    y = y * x + kExpP3;
    y = y * x + kExpP4;
    y = y * x + kExpP5;
    y = y * z + x;
    y = y + 1.0f;
    return y * pow2Lane(truncLane(fx));
}

#if defined(__SSE2__)

inline __m128
expLanes(__m128 x)
{
    const __m128 one = _mm_set1_ps(1.0f);
    x = _mm_max_ps(_mm_set1_ps(kExpLo), x);
    x = _mm_min_ps(_mm_set1_ps(kExpHi), x);
    __m128 fx = _mm_add_ps(_mm_mul_ps(x, _mm_set1_ps(kLog2e)),
                           _mm_set1_ps(0.5f));
    __m128 t = _mm_cvtepi32_ps(_mm_cvttps_epi32(fx));
    fx = _mm_sub_ps(t, _mm_and_ps(_mm_cmpgt_ps(t, fx), one));
    x = _mm_sub_ps(x, _mm_mul_ps(fx, _mm_set1_ps(kLn2Hi)));
    x = _mm_sub_ps(x, _mm_mul_ps(fx, _mm_set1_ps(kLn2Lo)));
    __m128 z = _mm_mul_ps(x, x);
    __m128 y = _mm_set1_ps(kExpP0);
    y = _mm_add_ps(_mm_mul_ps(y, x), _mm_set1_ps(kExpP1));
    y = _mm_add_ps(_mm_mul_ps(y, x), _mm_set1_ps(kExpP2));
    y = _mm_add_ps(_mm_mul_ps(y, x), _mm_set1_ps(kExpP3));
    y = _mm_add_ps(_mm_mul_ps(y, x), _mm_set1_ps(kExpP4));
    y = _mm_add_ps(_mm_mul_ps(y, x), _mm_set1_ps(kExpP5));
    y = _mm_add_ps(_mm_mul_ps(y, z), x);
    y = _mm_add_ps(y, one);
    __m128i n = _mm_add_epi32(_mm_cvttps_epi32(fx),
                              _mm_set1_epi32(127));
    return _mm_mul_ps(y, _mm_castsi128_ps(_mm_slli_epi32(n, 23)));
}

inline __m128
sigmoidLanes(__m128 x)
{
    const __m128 one = _mm_set1_ps(1.0f);
    __m128 neg = _mm_xor_ps(x, _mm_set1_ps(-0.0f));
    return _mm_div_ps(one, _mm_add_ps(one, expLanes(neg)));
}

inline __m128
tanhLanes(__m128 x0)
{
    __m128 x = _mm_max_ps(_mm_set1_ps(-kTanhClamp), x0);
    x = _mm_min_ps(_mm_set1_ps(kTanhClamp), x);
    __m128 x2 = _mm_mul_ps(x, x);
    __m128 p = _mm_add_ps(_mm_mul_ps(x2, _mm_set1_ps(kTanhA13)),
                          _mm_set1_ps(kTanhA11));
    p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhA9));
    p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhA7));
    p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhA5));
    p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhA3));
    p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhA1));
    p = _mm_mul_ps(p, x);
    __m128 q = _mm_add_ps(_mm_mul_ps(x2, _mm_set1_ps(kTanhB6)),
                          _mm_set1_ps(kTanhB4));
    q = _mm_add_ps(_mm_mul_ps(q, x2), _mm_set1_ps(kTanhB2));
    q = _mm_add_ps(_mm_mul_ps(q, x2), _mm_set1_ps(kTanhB0));
    __m128 r = _mm_div_ps(p, q);
    __m128 abs = _mm_andnot_ps(_mm_set1_ps(-0.0f), x0);
    __m128 tiny = _mm_cmplt_ps(abs, _mm_set1_ps(kTanhTiny));
    return _mm_or_ps(_mm_and_ps(tiny, x0), _mm_andnot_ps(tiny, r));
}

#endif // __SSE2__

} // namespace

float
sigmoidScalar(float x)
{
    return 1.0f / (1.0f + expScalar(-x));
}

float
tanhScalar(float x0)
{
    float x = maxLane(-kTanhClamp, x0);
    x = minLane(kTanhClamp, x);
    float x2 = x * x;
    float p = x2 * kTanhA13 + kTanhA11;
    p = p * x2 + kTanhA9;
    p = p * x2 + kTanhA7;
    p = p * x2 + kTanhA5;
    p = p * x2 + kTanhA3;
    p = p * x2 + kTanhA1;
    p = p * x;
    float q = x2 * kTanhB6 + kTanhB4;
    q = q * x2 + kTanhB2;
    q = q * x2 + kTanhB0;
    float r = p / q;
    return std::fabs(x0) < kTanhTiny ? x0 : r;
}

void
sigmoidInto(const float* src, float* dst, std::size_t n)
{
    std::size_t i = 0;
#if defined(__SSE2__)
    for (; i + 4 <= n; i += 4)
        _mm_storeu_ps(dst + i, sigmoidLanes(_mm_loadu_ps(src + i)));
#endif
    for (; i < n; ++i)
        dst[i] = sigmoidScalar(src[i]);
}

void
tanhInto(const float* src, float* dst, std::size_t n)
{
    std::size_t i = 0;
#if defined(__SSE2__)
    for (; i + 4 <= n; i += 4)
        _mm_storeu_ps(dst + i, tanhLanes(_mm_loadu_ps(src + i)));
#endif
    for (; i < n; ++i)
        dst[i] = tanhScalar(src[i]);
}

} // namespace kernels
} // namespace ccsa
