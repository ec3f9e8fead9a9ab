#include "core/encoding.h"

#include <cstring>
#include <string>

namespace naru {

namespace {
size_t BitsFor(size_t domain) {
  size_t bits = 1;
  while ((size_t{1} << bits) < domain) ++bits;
  return bits;
}
}  // namespace

InputEncoder::InputEncoder(const std::vector<size_t>& domains,
                           const EncoderConfig& cfg, Rng* rng)
    : domains_(domains) {
  const size_t n = domains_.size();
  kinds_.resize(n);
  widths_.resize(n);
  offsets_.resize(n);
  embeddings_.resize(n);
  size_t offset = 0;
  for (size_t c = 0; c < n; ++c) {
    NARU_CHECK(domains_[c] >= 1);
    if (domains_[c] <= cfg.onehot_threshold) {
      kinds_[c] = ColEncoding::kOneHot;
      widths_[c] = domains_[c];
    } else if (cfg.binary_for_large) {
      kinds_[c] = ColEncoding::kBinary;
      widths_[c] = BitsFor(domains_[c]);
    } else {
      kinds_[c] = ColEncoding::kEmbedding;
      widths_[c] = cfg.embed_dim;
      embeddings_[c] = std::make_unique<Embedding>(
          "enc.col" + std::to_string(c), domains_[c], cfg.embed_dim, rng);
    }
    offsets_[c] = offset;
    offset += widths_[c];
  }
  total_width_ = offset;
}

void InputEncoder::EncodeColumns(const IntMatrix& codes, size_t upto,
                                 Matrix* x) const {
  x->Resize(codes.rows(), total_width_);
  x->Zero();
  for (size_t c = 0; c < upto; ++c) WriteColumn(codes, c, x);
}

void InputEncoder::WriteColumn(const IntMatrix& codes, size_t c,
                               Matrix* x) const {
  const size_t batch = codes.rows();
  const size_t off = offsets_[c];
  switch (kinds_[c]) {
    case ColEncoding::kOneHot:
      for (size_t r = 0; r < batch; ++r) {
        const int32_t code = codes.At(r, c);
        NARU_DCHECK(code >= 0 && static_cast<size_t>(code) < domains_[c]);
        x->At(r, off + static_cast<size_t>(code)) = 1.0f;
      }
      break;
    case ColEncoding::kBinary:
      for (size_t r = 0; r < batch; ++r) {
        const uint32_t code = static_cast<uint32_t>(codes.At(r, c));
        for (size_t b = 0; b < widths_[c]; ++b) {
          x->At(r, off + b) = (code >> b) & 1u ? 1.0f : 0.0f;
        }
      }
      break;
    case ColEncoding::kEmbedding: {
      // Row-strided gather (codes are row-major tuples).
      const Matrix& table = embeddings_[c]->table().value;
      for (size_t r = 0; r < batch; ++r) {
        const int32_t code = codes.At(r, c);
        NARU_DCHECK(code >= 0 && static_cast<size_t>(code) < domains_[c]);
        std::memcpy(x->Row(r) + off, table.Row(code),
                    widths_[c] * sizeof(float));
      }
      break;
    }
  }
}

void InputEncoder::EncodeColumn(const IntMatrix& codes, size_t col,
                                Matrix* x) const {
  NARU_CHECK(x->rows() == codes.rows() && x->cols() == total_width_);
  if (kinds_[col] == ColEncoding::kOneHot) {
    for (size_t r = 0; r < codes.rows(); ++r) {
      std::memset(x->Row(r) + offsets_[col], 0, widths_[col] * sizeof(float));
    }
  }
  WriteColumn(codes, col, x);
}

void InputEncoder::EncodeBatch(const IntMatrix& codes, Matrix* x) const {
  EncodeColumns(codes, num_columns(), x);
}

void InputEncoder::EncodeBatchPrefix(const IntMatrix& codes, size_t upto,
                                     Matrix* x) const {
  EncodeColumns(codes, upto, x);
}

void InputEncoder::Backward(const IntMatrix& codes, const Matrix& dx) {
  const size_t batch = codes.rows();
  for (size_t c = 0; c < num_columns(); ++c) {
    if (kinds_[c] != ColEncoding::kEmbedding) continue;
    const size_t off = offsets_[c];
    for (size_t r = 0; r < batch; ++r) {
      const int32_t code = codes.At(r, c);
      float* grow = embeddings_[c]->table().grad.Row(code);
      const float* srow = dx.Row(r) + off;
      for (size_t j = 0; j < widths_[c]; ++j) grow[j] += srow[j];
    }
  }
}

}  // namespace naru
