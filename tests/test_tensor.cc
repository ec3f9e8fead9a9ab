// Unit tests for the tensor substrate: GEMM variants vs naive reference,
// softmax, ReLU and reductions.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/gemm.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "util/random.h"

namespace naru {
namespace {

Matrix RandomMatrix(size_t r, size_t c, Rng* rng) {
  Matrix m(r, c);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Gaussian());
  }
  return m;
}

void NaiveGemmNN(const Matrix& a, const Matrix& b, Matrix* c) {
  c->Resize(a.rows(), b.cols());
  c->Zero();
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      c->At(i, j) = static_cast<float>(acc);
    }
  }
}

TEST(Gemm, NNMatchesNaive) {
  Rng rng(1);
  const Matrix a = RandomMatrix(33, 17, &rng);
  const Matrix b = RandomMatrix(17, 29, &rng);
  Matrix fast;
  Matrix slow;
  GemmNN(a, b, &fast);
  NaiveGemmNN(a, b, &slow);
  ASSERT_EQ(fast.rows(), slow.rows());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-4);
  }
}

TEST(Gemm, NTMatchesNaive) {
  Rng rng(2);
  const Matrix a = RandomMatrix(21, 13, &rng);
  const Matrix bt = RandomMatrix(19, 13, &rng);  // logical B = bt^T
  Matrix fast;
  GemmNT(a, bt, &fast);
  // Reference: build B explicitly.
  Matrix b(13, 19);
  for (size_t i = 0; i < 19; ++i) {
    for (size_t j = 0; j < 13; ++j) b.At(j, i) = bt.At(i, j);
  }
  Matrix slow;
  NaiveGemmNN(a, b, &slow);
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-4);
  }
}

TEST(Gemm, TNMatchesNaive) {
  Rng rng(3);
  const Matrix at = RandomMatrix(15, 11, &rng);  // logical A = at^T
  const Matrix b = RandomMatrix(15, 9, &rng);
  Matrix fast;
  GemmTN(at, b, &fast);
  Matrix a(11, 15);
  for (size_t i = 0; i < 15; ++i) {
    for (size_t j = 0; j < 11; ++j) a.At(j, i) = at.At(i, j);
  }
  Matrix slow;
  NaiveGemmNN(a, b, &slow);
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-4);
  }
}

TEST(Gemm, AccumulateAddsIntoC) {
  Rng rng(4);
  const Matrix a = RandomMatrix(5, 6, &rng);
  const Matrix b = RandomMatrix(6, 7, &rng);
  Matrix once;
  GemmNN(a, b, &once);
  Matrix twice;
  GemmNN(a, b, &twice);
  GemmNN(a, b, &twice, /*accumulate=*/true);
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice.data()[i], 2.0f * once.data()[i], 1e-4);
  }
}

TEST(Gemm, BiasHelpers) {
  Matrix c(3, 2);
  c.Fill(1.0f);
  Matrix bias(1, 2);
  bias.At(0, 0) = 0.5f;
  bias.At(0, 1) = -1.0f;
  AddBiasRows(bias, &c);
  EXPECT_FLOAT_EQ(c.At(2, 0), 1.5f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 0.0f);

  Matrix grad(1, 2);
  AccumulateBiasGrad(c, &grad);
  EXPECT_FLOAT_EQ(grad.At(0, 0), 4.5f);
  EXPECT_FLOAT_EQ(grad.At(0, 1), 0.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(5);
  const Matrix logits = RandomMatrix(8, 12, &rng);
  Matrix probs;
  SoftmaxRows(logits, &probs);
  for (size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0;
    for (size_t c = 0; c < probs.cols(); ++c) {
      EXPECT_GE(probs.At(r, c), 0.0f);
      sum += probs.At(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxIsShiftInvariant) {
  Matrix a(1, 3);
  a.At(0, 0) = 1000.0f;
  a.At(0, 1) = 1001.0f;
  a.At(0, 2) = 1002.0f;
  Matrix p;
  SoftmaxRows(a, &p);
  Matrix b(1, 3);
  b.At(0, 0) = 0.0f;
  b.At(0, 1) = 1.0f;
  b.At(0, 2) = 2.0f;
  Matrix q;
  SoftmaxRows(b, &q);
  for (size_t c = 0; c < 3; ++c) EXPECT_NEAR(p.At(0, c), q.At(0, c), 1e-6);
}

TEST(Ops, LogSumExpSlice) {
  const float row[4] = {0.0f, 1.0f, 2.0f, 100.0f};
  const double lse = LogSumExpSlice(row, 0, 3);
  const double expected = std::log(std::exp(0.0) + std::exp(1.0) +
                                   std::exp(2.0));
  EXPECT_NEAR(lse, expected, 1e-9);
  EXPECT_NEAR(LogSumExpSlice(row, 3, 4), 100.0, 1e-9);
}

TEST(Ops, ReluForwardBackward) {
  Matrix x(1, 4);
  x.At(0, 0) = -1.0f;
  x.At(0, 1) = 2.0f;
  x.At(0, 2) = 0.0f;
  x.At(0, 3) = 5.0f;
  Matrix y;
  ReluForward(x, &y);
  EXPECT_FLOAT_EQ(y.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 2.0f);

  Matrix dy(1, 4);
  dy.Fill(1.0f);
  Matrix dx;
  ReluBackward(x, dy, &dx);
  EXPECT_FLOAT_EQ(dx.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.At(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(dx.At(0, 2), 0.0f);  // gradient at exactly 0 is 0
  EXPECT_FLOAT_EQ(dx.At(0, 3), 1.0f);
}

TEST(Matrix, Helpers) {
  Matrix m(2, 2);
  m.At(0, 0) = 3.0f;
  m.At(1, 1) = -4.0f;
  EXPECT_DOUBLE_EQ(m.SumSquares(), 25.0);
  EXPECT_DOUBLE_EQ(m.AbsMax(), 4.0);
  EXPECT_EQ(m.ShapeString(), "[2 x 2]");
}

}  // namespace
}  // namespace naru
