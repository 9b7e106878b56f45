/**
 * @file
 * Branch-free sigmoid and tanh over float buffers — the element-wise
 * core of every gate in the tree-LSTM, LSTM and GCN forward passes
 * (ag::sigmoid and ag::tanhOp route through here).
 *
 *  - sigmoid(x) = 1 / (1 + exp(-x)), with a Cephes-style expf: the
 *    argument clamped to [-87, 88], a degree-5 polynomial on the
 *    range-reduced remainder, and 2^n built from exponent bits.
 *  - tanh(x) is the 13/6 odd/even rational used by Eigen, with the
 *    input clamped to +-7.90531110763549805 (where the rational
 *    reaches +-1) and |x| < 0.0004 passed through as x.
 *
 * On x86-64 the buffer kernels run four SSE2 lanes (SSE2 is the
 * baseline there, so no extra compile flags and no dispatch) plus a
 * scalar tail; elsewhere the scalar form runs alone. The scalar form
 * performs the same IEEE operations in the same order as a lane and
 * uses no fused multiply-add, so the result for a given input is the
 * same bits whichever path computed it, on every host.
 *
 * Numerics contract (pinned by test_activations):
 *  - sigmoid is within 2.5e-7 absolute of 1/(1+exp(-x)) in double;
 *    tanh is within 5e-7 relative of std::tanh, for every finite x.
 *  - NaN in gives NaN out (the clamps are ordered max(lo, x) then
 *    min(hi, .), which return the NaN operand).
 *  - sigmoid(+inf) = 1, sigmoid(-inf) is a positive value below
 *    FLT_MIN; tanh(+-inf) = +-1 and tanh(+-0) = +-0.
 *  - Vector lanes and the scalar tail agree bitwise on every input.
 */

#ifndef CCSA_TENSOR_ACTIVATIONS_HH
#define CCSA_TENSOR_ACTIVATIONS_HH

#include <cstddef>

namespace ccsa
{
namespace kernels
{

/** dst[i] = sigmoid(src[i]) for i < n; src may equal dst. */
void sigmoidInto(const float* src, float* dst, std::size_t n);

/** dst[i] = tanh(src[i]) for i < n; src may equal dst. */
void tanhInto(const float* src, float* dst, std::size_t n);

/** The scalar form one vector lane reproduces bit for bit. */
float sigmoidScalar(float x);

/** The scalar form one vector lane reproduces bit for bit. */
float tanhScalar(float x);

} // namespace kernels
} // namespace ccsa

#endif // CCSA_TENSOR_ACTIVATIONS_HH
