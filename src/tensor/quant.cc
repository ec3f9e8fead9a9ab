#include "tensor/quant.h"

#include <cmath>

#include "tensor/gemm_kernels.h"
#include "util/macros.h"
#include "util/thread_pool.h"

namespace naru {

namespace {
constexpr size_t kMinRowsPerTask = 16;
}  // namespace

void QuantizeWeightsPerColumn(const Matrix& w, QuantizedWeights* q) {
  const size_t rows = w.rows();
  const size_t cols = w.cols();
  const size_t stride = PaddedStride(cols);
  q->rows = rows;
  q->cols = cols;
  q->stride = stride;
  q->data.assign(rows * stride, 0);
  q->scales.assign(stride, 0.0f);

  for (size_t j = 0; j < cols; ++j) {
    float absmax = 0.0f;
    for (size_t i = 0; i < rows; ++i) {
      const float v = std::fabs(w.At(i, j));
      if (v > absmax) absmax = v;
    }
    if (absmax == 0.0f) continue;  // scale 0, codes 0
    const float scale = absmax / 127.0f;
    q->scales[j] = scale;
    const float inv = 127.0f / absmax;
    for (size_t i = 0; i < rows; ++i) {
      long code = std::lround(w.At(i, j) * inv);
      if (code > 127) code = 127;
      if (code < -127) code = -127;
      q->data[i * stride + j] = static_cast<int8_t>(code);
    }
  }
}

void GatherQuantizedColumns(const QuantizedWeights& q,
                            const std::vector<size_t>& cols,
                            QuantizedWeights* out) {
  out->rows = q.rows;
  out->cols = cols.size();
  out->stride = PaddedStride(cols.size());
  out->data.assign(out->rows * out->stride, 0);
  out->scales.assign(out->stride, 0.0f);
  for (size_t j = 0; j < cols.size(); ++j) out->scales[j] = q.scales[cols[j]];
  for (size_t i = 0; i < q.rows; ++i) {
    const int8_t* src = q.data.data() + i * q.stride;
    int8_t* dst = out->data.data() + i * out->stride;
    for (size_t j = 0; j < cols.size(); ++j) dst[j] = src[cols[j]];
  }
}

void DequantizeWeights(const QuantizedWeights& q, Matrix* out) {
  out->Resize(q.rows, q.cols);
  for (size_t i = 0; i < q.rows; ++i) {
    float* row = out->Row(i);
    const int8_t* qrow = q.data.data() + i * q.stride;
    for (size_t j = 0; j < q.cols; ++j) {
      row[j] = q.scales[j] * static_cast<float>(qrow[j]);
    }
  }
}

void GemmNNInt8(const Matrix& a, const QuantizedWeights& q, Matrix* c,
                bool accumulate, InputHint hint) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = q.cols;
  NARU_CHECK(q.rows == k);
  if (accumulate) {
    NARU_CHECK(c->rows() == m && c->cols() == n);
  } else {
    c->Resize(m, n);
    c->Zero();
  }
  NARU_CHECK(c->stride() == q.stride);
  const bool onehot = hint == InputHint::kOneHot;
  ParallelFor(
      0, m,
      [&](size_t lo, size_t hi) {
        gemm_detail::NNRowsInt8(a.data(), a.stride(), q.data.data(), q.stride,
                                q.scales.data(), c->data(), c->stride(), lo,
                                hi, k, onehot);
      },
      kMinRowsPerTask);
}

}  // namespace naru
