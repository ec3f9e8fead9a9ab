#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

namespace naru {

void ReluForward(const Matrix& in, Matrix* out) {
  if (out != &in) out->Resize(in.rows(), in.cols());
  const float* src = in.data();
  float* dst = out->data();
  const size_t n = in.size();
  for (size_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void ReluBackward(const Matrix& x, const Matrix& dy, Matrix* dx) {
  NARU_CHECK(x.rows() == dy.rows() && x.cols() == dy.cols());
  if (dx != &dy) dx->Resize(dy.rows(), dy.cols());
  const float* xs = x.data();
  const float* dys = dy.data();
  float* dxs = dx->data();
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) dxs[i] = xs[i] > 0.0f ? dys[i] : 0.0f;
}

void SoftmaxRows(const Matrix& logits, Matrix* probs) {
  if (probs != &logits) probs->Resize(logits.rows(), logits.cols());
  for (size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.Row(r);
    float* out = probs->Row(r);
    const size_t n = logits.cols();
    float mx = in[0];
    for (size_t i = 1; i < n; ++i) mx = std::max(mx, in[i]);
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      const float e = std::exp(in[i] - mx);
      out[i] = e;
      sum += e;
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (size_t i = 0; i < n; ++i) out[i] *= inv;
  }
}

void SoftmaxRowsSlice(const Matrix& logits, size_t begin, size_t end,
                      Matrix* probs) {
  NARU_CHECK(end <= logits.cols() && begin < end);
  NARU_CHECK(probs->rows() == logits.rows() &&
             probs->cols() == logits.cols());
  for (size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.Row(r);
    float* out = probs->Row(r);
    float mx = in[begin];
    for (size_t i = begin + 1; i < end; ++i) mx = std::max(mx, in[i]);
    double sum = 0;
    for (size_t i = begin; i < end; ++i) {
      const float e = std::exp(in[i] - mx);
      out[i] = e;
      sum += e;
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (size_t i = begin; i < end; ++i) out[i] *= inv;
  }
}

double LogSumExpSlice(const float* row, size_t begin, size_t end) {
  NARU_CHECK(begin < end);
  float mx = row[begin];
  for (size_t i = begin + 1; i < end; ++i) mx = std::max(mx, row[i]);
  double sum = 0;
  for (size_t i = begin; i < end; ++i) {
    sum += std::exp(static_cast<double>(row[i]) - mx);
  }
  return static_cast<double>(mx) + std::log(sum);
}

void Axpy(const Matrix& a, float scale, Matrix* c) {
  NARU_CHECK(a.rows() == c->rows() && a.cols() == c->cols());
  const float* src = a.data();
  float* dst = c->data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) dst[i] += scale * src[i];
}

void GatherColumns(const Matrix& in, const std::vector<size_t>& cols,
                   Matrix* out) {
  out->Resize(in.rows(), cols.size());
  for (size_t r = 0; r < in.rows(); ++r) {
    const float* src = in.Row(r);
    float* dst = out->Row(r);
    for (size_t j = 0; j < cols.size(); ++j) dst[j] = src[cols[j]];
  }
}

void GatherRows(const Matrix& in, const std::vector<size_t>& rows,
                Matrix* out) {
  out->Resize(rows.size(), in.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy(in.Row(rows[i]), in.Row(rows[i]) + in.cols(), out->Row(i));
  }
}

double L2Norm(const Matrix& m) { return std::sqrt(m.SumSquares()); }

}  // namespace naru
