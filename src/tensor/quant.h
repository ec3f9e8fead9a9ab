// Int8 weight quantization for the inference path.
//
// Per-output-channel symmetric quantization: each weight column j (one
// output unit of a Linear/MaskedLinear) gets scale_j = max_i |W(i,j)| / 127
// and int8 codes q = round(w / scale_j) clamped to [-127, 127]. Activations
// and accumulation stay fp32; the scale is applied once per output element,
// so the kernel is "int8 storage, fp32 math" — the accuracy-conservative
// end of the quantization spectrum, matching the paper's observation
// (Table 7) that these models tolerate aggressive size reduction.
//
// The quantized panel is laid out padded to the Matrix stride (64-byte
// rows, zero padding, zero scales for padding columns), i.e. it is packed
// for the SIMD kernels at quantization time — once, at model load — so the
// hot loop does no repacking. Masked (exactly-zero) weights quantize to
// exactly zero, preserving MADE's autoregressive masking.
//
// Train-time weights are untouched: quantization reads Matrix weights and
// produces a side buffer; requantize after any weight update.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/matrix.h"

namespace naru {

/// Packed int8 weights for one Linear layer: W is (in x out) like the fp32
/// Matrix it mirrors.
struct QuantizedWeights {
  size_t rows = 0;    // input dim (K)
  size_t cols = 0;    // output dim (N), logical
  size_t stride = 0;  // PaddedStride(cols)
  std::vector<int8_t, AlignedAllocator<int8_t, kMatrixRowAlignBytes>> data;
  // One fp32 scale per output column, `stride` entries, padding zero.
  std::vector<float, AlignedAllocator<float, kMatrixRowAlignBytes>> scales;

  bool valid() const { return !data.empty(); }
  void Clear() {
    rows = cols = stride = 0;
    data.clear();
    scales.clear();
  }
};

/// Quantizes `w` per output column into `q` (packed + padded as above).
/// All-zero columns get scale 0 and all-zero codes.
void QuantizeWeightsPerColumn(const Matrix& w, QuantizedWeights* q);

/// Packs columns cols[0], cols[1], ... of `q` (codes and scales) into
/// `out`, laid out like any quantized panel.
void GatherQuantizedColumns(const QuantizedWeights& q,
                            const std::vector<size_t>& cols,
                            QuantizedWeights* out);

/// Reconstructs fp32 weights from `q` (tests and error analysis).
void DequantizeWeights(const QuantizedWeights& q, Matrix* out);

/// C(MxN) = A(MxK) * dequant(Q) [+ C if accumulate]. fp32 accumulation,
/// per-column scale applied once at the end; same row-parallel, fixed
/// reduction-order determinism contract as GemmNN.
void GemmNNInt8(const Matrix& a, const QuantizedWeights& q, Matrix* c,
                bool accumulate = false, InputHint hint = InputHint::kDense);

}  // namespace naru
