// Per-column input encoding strategies (§4.2).
//
// Small domains are one-hot encoded (indicator variables); large domains use
// a learnable embedding matrix of width h (default 64) that is also reused
// as the output decoder under "embedding reuse". A compact binary encoding
// (ceil(log2 |A|) bits) is available as a space-lean alternative for large
// domains when embedding reuse is disabled.
#pragma once

#include <memory>
#include <vector>

#include "nn/embedding.h"
#include "tensor/matrix.h"
#include "util/random.h"

namespace naru {

enum class ColEncoding { kOneHot, kEmbedding, kBinary };

struct EncoderConfig {
  /// Domains <= this are one-hot encoded (paper default 64).
  size_t onehot_threshold = 64;
  /// Embedding width h (paper default 64).
  size_t embed_dim = 64;
  /// Use binary instead of embedding encoding for large domains.
  bool binary_for_large = false;
};

/// Encodes batches of dictionary-code tuples into the model's input matrix
/// and owns the per-column embedding tables.
class InputEncoder {
 public:
  InputEncoder(const std::vector<size_t>& domains, const EncoderConfig& cfg,
               Rng* rng);

  size_t num_columns() const { return domains_.size(); }
  size_t total_width() const { return total_width_; }
  size_t domain(size_t col) const { return domains_[col]; }

  ColEncoding encoding(size_t col) const { return kinds_[col]; }
  /// Input width contributed by column `col`.
  size_t width(size_t col) const { return widths_[col]; }
  /// Offset of column `col`'s slice within the input row.
  size_t offset(size_t col) const { return offsets_[col]; }

  /// Fraction of the input width produced by one-hot slices (exact zeros
  /// except one 1 per encoded column). Drives the GEMM sparse-input hint
  /// for the first hidden layer: with mostly-one-hot inputs the zero-skip
  /// fast path pays; with embedding-dominated inputs it does not.
  double OneHotWidthFraction() const {
    if (total_width_ == 0) return 0.0;
    size_t w = 0;
    for (size_t c = 0; c < kinds_.size(); ++c) {
      if (kinds_[c] == ColEncoding::kOneHot) w += widths_[c];
    }
    return static_cast<double>(w) / static_cast<double>(total_width_);
  }

  /// Embedding table for `col` (nullptr when not embedding-encoded).
  Embedding* embedding(size_t col) { return embeddings_[col].get(); }
  const Embedding* embedding(size_t col) const {
    return embeddings_[col].get();
  }

  /// Encodes all columns of the batch into x (batch x total_width).
  void EncodeBatch(const IntMatrix& codes, Matrix* x) const;

  /// Encodes only columns < upto; remaining slices are zero. MADE's masks
  /// make the zeros irrelevant, but zeroing keeps inputs well-defined.
  void EncodeBatchPrefix(const IntMatrix& codes, size_t upto,
                         Matrix* x) const;

  /// Overwrites only column `col`'s slice of an already-encoded x (batch x
  /// total_width); every other slice is left as it is. Incremental
  /// sampling walks use this to extend a prefix encoding by one column.
  void EncodeColumn(const IntMatrix& codes, size_t col, Matrix* x) const;

  /// Scatters input gradients into the embedding tables (one-hot and
  /// binary slices have no parameters).
  void Backward(const IntMatrix& codes, const Matrix& dx);

  void CollectParameters(std::vector<Parameter*>* out) {
    for (auto& e : embeddings_) {
      if (e) e->CollectParameters(out);
    }
  }

 private:
  void EncodeColumns(const IntMatrix& codes, size_t upto, Matrix* x) const;
  /// Writes column `c`'s encoding into its slice of x; one-hot slices must
  /// already be zero.
  void WriteColumn(const IntMatrix& codes, size_t c, Matrix* x) const;

  std::vector<size_t> domains_;
  std::vector<ColEncoding> kinds_;
  std::vector<size_t> widths_;
  std::vector<size_t> offsets_;
  std::vector<std::unique_ptr<Embedding>> embeddings_;
  size_t total_width_ = 0;
};

}  // namespace naru
