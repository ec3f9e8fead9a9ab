// Elementwise and row-wise tensor kernels used by layers and the sampler.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace naru {

/// out = relu(in); shapes must match (out may alias in).
void ReluForward(const Matrix& in, Matrix* out);

/// dx = dy * 1[x > 0]; `x` is the pre-activation input (dx may alias dy).
void ReluBackward(const Matrix& x, const Matrix& dy, Matrix* dx);

/// Softmax over each row of `logits` into `probs` (may alias).
/// Numerically stabilized by per-row max subtraction.
///
/// Bits: each row is the ascending std::max chain for its max, std::exp
/// of (x - max) per entry, one ascending chain of double adds for the sum
/// and a multiply by float(1 / sum), whichever path runs. Where
/// FastExpfEnabled() holds, the row max is a vector max (a row holding a
/// NaN comes out all NaN on either path, whatever its max), the exps come from
/// ExpfFma4, each row's chain of adds runs in one lane of a vector beside
/// three other rows', and the normalising multiplies are vector
/// multiplies; elsewhere it is the plain per-entry loop.
void SoftmaxRows(const Matrix& logits, Matrix* probs);

/// True when SoftmaxRows takes its fast path: DetectedSimdLevel() is
/// kAvx2 (an x86-64 host with AVX2 and FMA) and a one-time probe found
/// ExpfFma and ExpfFma4 equal to std::exp, bit for bit, on a fixed set
/// of inputs. The exp's bits come from the host's libm, so the probe
/// keeps the in-repo exp from changing the golden bits on a host whose
/// libm computes differently. The set includes -0x1.f8cbb2p+5
/// (0xc27c65d9), the one input in [-88, 0] where glibc's non-FMA
/// build's expf differs from its FMA build's, so a libm of the non-FMA
/// kind turns the fast path off. The probe runs on the first call that
/// finds kAvx2; SetSimdLevelOverrideForTest(kNone) reaches the fallback.
bool FastExpfEnabled();

/// exp(x) with the bits of glibc's expf as its x86-64 FMA build computes
/// it (the table-driven scheme glibc has used since 2.27: a 32-entry
/// 2^(i/32) table, a degree-3 polynomial in double and one rounding to
/// float). The scheme covers x in (-87, 0]; any other x (positive,
/// <= -87, -inf, NaN) is passed to std::exp. Requires an AVX2+FMA CPU
/// (DetectedSimdLevel() == kAvx2) on x86-64; elsewhere both are
/// std::exp. ExpfFma4 computes out[i] = ExpfFma(x[i]) for i < 4, with the
/// four lanes in one vector.
float ExpfFma(float x);
void ExpfFma4(const float* x, float* out);

/// log(sum(exp(row[begin:end]))) with max-subtraction, for one row.
double LogSumExpSlice(const float* row, size_t begin, size_t end);

/// c += a * scale (shapes must match).
void Axpy(const Matrix& a, float scale, Matrix* c);

/// out (rows x cols.size()) = columns cols[0], cols[1], ... of `in`.
void GatherColumns(const Matrix& in, const std::vector<size_t>& cols,
                   Matrix* out);

/// out (rows.size() x cols) = rows rows[0], rows[1], ... of `in` (out
/// must not alias in). Copies whole padded rows into a buffer it does not
/// zero first.
void GatherRows(const Matrix& in, const std::vector<size_t>& rows,
                Matrix* out);

/// Returns the global L2 norm sqrt(sum of squares) of the matrix.
double L2Norm(const Matrix& m);

}  // namespace naru
