/**
 * @file
 * Numerics contract of the vectorized sigmoid/tanh kernels
 * (tensor/activations.hh): vector lanes match the scalar tail bit for
 * bit, error against libm stays inside the documented bounds, NaN and
 * infinities behave, and the autograd ops built on them still pass
 * their gradient checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gradcheck.hh"
#include "tensor/activations.hh"
#include "tensor/arena.hh"
#include "tensor/autograd.hh"

namespace ccsa
{
namespace
{

using testutil::expectGradientsMatch;
using testutil::patterned;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::uint32_t
bitsOf(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

/** Dense sweep over [-100, 100] plus the edge cases of both kernels. */
std::vector<float>
sweep()
{
    std::vector<float> xs;
    for (int i = -200000; i <= 200000; ++i)
        xs.push_back(static_cast<float>(i) * 5e-4f);
    for (float mag : {0.0f, FLT_MIN, FLT_TRUE_MIN, 1e-30f, 3.9e-4f,
                      4e-4f, 4.1e-4f, 7.9053111f, 7.906f, 87.0f, 88.0f,
                      88.7f, 89.0f, 1e4f, FLT_MAX, kInf}) {
        xs.push_back(mag);
        xs.push_back(-mag);
    }
    return xs;
}

TEST(Activations, LanesMatchScalarTailBitwiseOnDenseSweep)
{
    const std::vector<float> xs = sweep();
    std::vector<float> sig(xs.size()), th(xs.size());
    kernels::sigmoidInto(xs.data(), sig.data(), xs.size());
    kernels::tanhInto(xs.data(), th.data(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ(bitsOf(sig[i]), bitsOf(kernels::sigmoidScalar(xs[i])))
            << "sigmoid x=" << xs[i];
        ASSERT_EQ(bitsOf(th[i]), bitsOf(kernels::tanhScalar(xs[i])))
            << "tanh x=" << xs[i];
    }
}

TEST(Activations, EveryLengthFrom0To17MatchesScalarAndStaysInBounds)
{
    constexpr float kSentinel = -12345.0f;
    for (std::size_t n = 0; n <= 17; ++n) {
        std::vector<float> src(n);
        for (std::size_t i = 0; i < n; ++i)
            src[i] = -3.0f + 0.41f * static_cast<float>(i);
        std::vector<float> sig(n + 1, kSentinel), th(n + 1, kSentinel);
        kernels::sigmoidInto(src.data(), sig.data(), n);
        kernels::tanhInto(src.data(), th.data(), n);
        EXPECT_EQ(sig[n], kSentinel) << "sigmoid wrote past n=" << n;
        EXPECT_EQ(th[n], kSentinel) << "tanh wrote past n=" << n;
        // In place (src == dst) is allowed and gives the same bits.
        std::vector<float> sig_in(src), th_in(src);
        kernels::sigmoidInto(sig_in.data(), sig_in.data(), n);
        kernels::tanhInto(th_in.data(), th_in.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(bitsOf(sig[i]),
                      bitsOf(kernels::sigmoidScalar(src[i])))
                << "n=" << n << " i=" << i;
            EXPECT_EQ(bitsOf(th[i]), bitsOf(kernels::tanhScalar(src[i])))
                << "n=" << n << " i=" << i;
            EXPECT_EQ(bitsOf(sig_in[i]), bitsOf(sig[i]));
            EXPECT_EQ(bitsOf(th_in[i]), bitsOf(th[i]));
        }
    }
}

TEST(Activations, ErrorAgainstLibmWithinContract)
{
    // 4e5-point grid over [-20, 20].
    constexpr int kPoints = 400001;
    std::vector<float> xs(kPoints);
    for (int i = 0; i < kPoints; ++i)
        xs[i] = -20.0f + 40.0f * static_cast<float>(i) / (kPoints - 1);
    // Log-spaced magnitudes for tanh's relative bound near zero,
    // down through the subnormals.
    for (float m = FLT_TRUE_MIN; m < 1.0f;
         m = std::nextafter(m * 1.01f, 1.0f)) {
        xs.push_back(m);
        xs.push_back(-m);
    }
    std::vector<float> sig(xs.size()), th(xs.size());
    kernels::sigmoidInto(xs.data(), sig.data(), xs.size());
    kernels::tanhInto(xs.data(), th.data(), xs.size());
    double sig_abs = 0.0;
    double tanh_rel = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double x = xs[i];
        sig_abs = std::max(
            sig_abs, std::fabs(sig[i] - 1.0 / (1.0 + std::exp(-x))));
        const double t = std::tanh(x);
        if (t != 0.0)
            tanh_rel = std::max(tanh_rel, std::fabs(th[i] - t) /
                                              std::fabs(t));
    }
    EXPECT_LE(sig_abs, 2.5e-7);
    EXPECT_LE(tanh_rel, 5e-7);
}

TEST(Activations, NanInGivesNanOut)
{
    const float xs[] = {kNaN, -kNaN, 1.0f, kNaN, 0.5f};
    float sig[5], th[5];
    kernels::sigmoidInto(xs, sig, 5);
    kernels::tanhInto(xs, th, 5);
    for (int i : {0, 1, 3}) {
        EXPECT_TRUE(std::isnan(sig[i])) << i;
        EXPECT_TRUE(std::isnan(th[i])) << i;
    }
    EXPECT_TRUE(std::isnan(kernels::sigmoidScalar(kNaN)));
    EXPECT_TRUE(std::isnan(kernels::tanhScalar(kNaN)));
    EXPECT_FALSE(std::isnan(sig[2]));
    EXPECT_FALSE(std::isnan(th[4]));
}

TEST(Activations, InfinitiesSaturate)
{
    // Four lanes plus a tail, so both paths see each infinity.
    const float xs[] = {kInf, -kInf, 1e30f, -1e30f, kInf, -kInf};
    float sig[6], th[6];
    kernels::sigmoidInto(xs, sig, 6);
    kernels::tanhInto(xs, th, 6);
    for (int i = 0; i < 6; ++i) {
        if (xs[i] > 0) {
            EXPECT_EQ(sig[i], 1.0f) << i;
            EXPECT_EQ(th[i], 1.0f) << i;
        } else {
            // exp(-x) clamps at exp(88), so the low tail stops just
            // short of zero, below the smallest normal float.
            EXPECT_GE(sig[i], 0.0f) << i;
            EXPECT_LT(sig[i], FLT_MIN) << i;
            EXPECT_EQ(th[i], -1.0f) << i;
        }
    }
}

TEST(Activations, TanhOfSignedZeroIsSignedZero)
{
    const float xs[] = {0.0f, -0.0f, 0.0f, -0.0f, -0.0f};
    float th[5];
    kernels::tanhInto(xs, th, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(bitsOf(th[i]), bitsOf(xs[i])) << i;
    EXPECT_EQ(bitsOf(kernels::tanhScalar(-0.0f)), bitsOf(-0.0f));
    EXPECT_EQ(kernels::sigmoidScalar(0.0f), 0.5f);
    EXPECT_EQ(kernels::sigmoidScalar(-0.0f), 0.5f);
}

TEST(Activations, AutogradOpsUseTheKernelsInBothModes)
{
    const Tensor x = patterned(5, 7, 6.0f, 0.2f);
    Tensor want_sig(5, 7), want_tanh(5, 7);
    kernels::sigmoidInto(x.data(), want_sig.data(), x.size());
    kernels::tanhInto(x.data(), want_tanh.data(), x.size());

    ag::Var leaf = ag::leaf(x);
    EXPECT_EQ(ag::sigmoid(leaf).value().maxAbsDiff(want_sig), 0.0f);
    EXPECT_EQ(ag::tanhOp(leaf).value().maxAbsDiff(want_tanh), 0.0f);

    InferenceScope scope;
    ag::Var c = ag::constant(x);
    EXPECT_EQ(ag::sigmoid(c).value().maxAbsDiff(want_sig), 0.0f);
    EXPECT_EQ(ag::tanhOp(c).value().maxAbsDiff(want_tanh), 0.0f);
}

TEST(Activations, SigmoidAndTanhGradchecksPass)
{
    // Spans the saturated tails as well as the linear middle.
    std::vector<ag::Var> leaves{ag::leaf(patterned(3, 5, 4.0f, 0.3f))};
    expectGradientsMatch(leaves, [&] {
        return ag::sumAllOp(ag::sigmoid(leaves[0]));
    });
    expectGradientsMatch(leaves, [&] {
        return ag::sumAllOp(ag::tanhOp(leaves[0]));
    });
}

} // namespace
} // namespace ccsa
