// Unit tests for the NN substrate: analytic gradients vs finite
// differences, mask invariants, optimizer convergence, serialization.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/adam.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/masked_linear.h"
#include "nn/mlp.h"
#include "nn/serialize.h"
#include "util/random.h"

namespace naru {
namespace {

// Scalar objective for gradient checking: sum of squares of the MLP output.
double Objective(Mlp* mlp, const Matrix& x) {
  Matrix y;
  mlp->Forward(x, &y);
  double s = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    s += 0.5 * static_cast<double>(y.data()[i]) * y.data()[i];
  }
  return s;
}

TEST(Mlp, GradientMatchesFiniteDifference) {
  Rng rng(21);
  Mlp mlp("t", {4, 6, 3}, &rng);
  Matrix x(5, 4);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Gaussian());
  }

  // Analytic gradients: d(0.5*sum y^2)/dy = y.
  Matrix y;
  mlp.Forward(x, &y);
  mlp.Backward(y, nullptr);

  std::vector<Parameter*> params;
  mlp.CollectParameters(&params);
  const double eps = 1e-3;
  for (Parameter* p : params) {
    for (size_t i = 0; i < std::min<size_t>(p->count(), 10); ++i) {
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + static_cast<float>(eps);
      const double up = Objective(&mlp, x);
      p->value.data()[i] = orig - static_cast<float>(eps);
      const double down = Objective(&mlp, x);
      p->value.data()[i] = orig;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric, 2e-2)
          << p->name << " index " << i;
    }
    p->ZeroGrad();
  }
}

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  Linear layer("l", 3, 2, &rng);
  layer.bias().value.At(0, 0) = 1.0f;
  Matrix x(4, 3);
  x.Zero();
  Matrix y;
  layer.Forward(x, &y);
  ASSERT_EQ(y.rows(), 4u);
  ASSERT_EQ(y.cols(), 2u);
  EXPECT_FLOAT_EQ(y.At(0, 0), 1.0f);  // zero input -> bias
}

TEST(MaskedLinear, MaskedWeightsStayZero) {
  Rng rng(2);
  Matrix mask(3, 4);
  mask.Fill(0.0f);
  mask.At(0, 0) = 1.0f;
  mask.At(2, 3) = 1.0f;
  MaskedLinear layer("m", 3, 4, mask, &rng);
  // Initially projected.
  EXPECT_FLOAT_EQ(layer.weight().value.At(1, 1), 0.0f);
  EXPECT_FLOAT_EQ(layer.weight().value.At(0, 1), 0.0f);

  // Train a few steps; masked entries must remain exactly zero.
  std::vector<Parameter*> params;
  layer.CollectParameters(&params);
  Adam adam(params, AdamOptions{});
  Matrix x(8, 3);
  Rng data_rng(3);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(data_rng.Gaussian());
  }
  for (int step = 0; step < 5; ++step) {
    Matrix y;
    layer.Forward(x, &y);
    layer.Backward(x, y, nullptr);  // arbitrary upstream grad = y
    adam.Step();
  }
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      if (mask.At(i, j) == 0.0f) {
        EXPECT_FLOAT_EQ(layer.weight().value.At(i, j), 0.0f);
      }
    }
  }
}

TEST(MaskedLinear, OutputRespectsMask) {
  Rng rng(4);
  // Mask where output 0 sees only input 0.
  Matrix mask(2, 1);
  mask.At(0, 0) = 1.0f;
  mask.At(1, 0) = 0.0f;
  MaskedLinear layer("m", 2, 1, mask, &rng);
  Matrix x(1, 2);
  x.At(0, 0) = 1.0f;
  x.At(0, 1) = 5.0f;
  Matrix y1;
  layer.Forward(x, &y1);
  x.At(0, 1) = -100.0f;  // changing masked input must not change output
  Matrix y2;
  layer.Forward(x, &y2);
  EXPECT_FLOAT_EQ(y1.At(0, 0), y2.At(0, 0));
}

TEST(Embedding, LookupAndAccumulate) {
  Rng rng(5);
  Embedding emb("e", 10, 4, &rng);
  const int32_t codes[3] = {2, 7, 2};
  Matrix dst(3, 6);
  dst.Zero();
  emb.Lookup(codes, 3, &dst, 1);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(dst.At(0, 1 + j), emb.table().value.At(2, j));
    EXPECT_FLOAT_EQ(dst.At(1, 1 + j), emb.table().value.At(7, j));
    EXPECT_FLOAT_EQ(dst.At(0, 1 + j), dst.At(2, 1 + j));
  }
  Matrix grad(3, 6);
  grad.Fill(1.0f);
  emb.Accumulate(codes, 3, grad, 1);
  // Code 2 was used twice.
  EXPECT_FLOAT_EQ(emb.table().grad.At(2, 0), 2.0f);
  EXPECT_FLOAT_EQ(emb.table().grad.At(7, 0), 1.0f);
  EXPECT_FLOAT_EQ(emb.table().grad.At(3, 0), 0.0f);
}

TEST(SoftmaxCrossEntropy, LossAndGradient) {
  // Two classes with known logits.
  Matrix logits(1, 2);
  logits.At(0, 0) = 0.0f;
  logits.At(0, 1) = 0.0f;
  Matrix dlogits(1, 2);
  dlogits.Zero();
  const int32_t target = 1;
  const double nll =
      SoftmaxCrossEntropySlice(logits, 0, 2, &target, 1.0f, &dlogits);
  EXPECT_NEAR(nll, std::log(2.0), 1e-6);
  EXPECT_NEAR(dlogits.At(0, 0), 0.5f, 1e-6);   // p - 0
  EXPECT_NEAR(dlogits.At(0, 1), -0.5f, 1e-6);  // p - 1
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 via gradient 2(w - 3).
  Parameter w("w", 1, 1);
  w.value.At(0, 0) = 0.0f;
  AdamOptions opts;
  opts.lr = 0.1;
  Adam adam({&w}, opts);
  for (int i = 0; i < 500; ++i) {
    w.grad.At(0, 0) = 2.0f * (w.value.At(0, 0) - 3.0f);
    adam.Step();
  }
  EXPECT_NEAR(w.value.At(0, 0), 3.0f, 1e-2);
}

TEST(Adam, GlobalNormClipping) {
  Parameter w("w", 1, 2);
  AdamOptions opts;
  opts.lr = 1.0;
  opts.clip_global_norm = 1e-12;  // effectively zero gradient
  Adam adam({&w}, opts);
  w.grad.At(0, 0) = 100.0f;
  w.grad.At(0, 1) = -100.0f;
  adam.Step();
  EXPECT_NEAR(w.value.At(0, 0), 0.0f, 1e-3);
}

TEST(Serialize, RoundTrip) {
  Rng rng(6);
  Mlp a("net", {3, 5, 2}, &rng);
  Mlp b("net", {3, 5, 2}, &rng);  // different init

  const std::string path = testing::TempDir() + "/naru_params_test.bin";
  std::vector<Parameter*> pa;
  a.CollectParameters(&pa);
  ASSERT_TRUE(SaveParameters(path, pa).ok());
  std::vector<Parameter*> pb;
  b.CollectParameters(&pb);
  ASSERT_TRUE(LoadParameters(path, pb).ok());

  Matrix x(2, 3);
  x.Fill(0.3f);
  Matrix ya;
  Matrix yb;
  a.ForwardInference(x, &ya);
  b.ForwardInference(x, &yb);
  for (size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchFails) {
  Rng rng(7);
  Mlp a("net", {3, 5, 2}, &rng);
  Mlp b("net", {3, 4, 2}, &rng);
  const std::string path = testing::TempDir() + "/naru_params_bad.bin";
  std::vector<Parameter*> pa;
  a.CollectParameters(&pa);
  ASSERT_TRUE(SaveParameters(path, pa).ok());
  std::vector<Parameter*> pb;
  b.CollectParameters(&pb);
  EXPECT_FALSE(LoadParameters(path, pb).ok());
  std::remove(path.c_str());
}

TEST(Serialize, EmptyFileIsInvalidArgument) {
  // A well-formed file with no entries must not leave the model serving
  // its random initial weights.
  Rng rng(8);
  Mlp a("net", {3, 5, 2}, &rng);
  const std::string path = testing::TempDir() + "/naru_params_empty.bin";
  ASSERT_TRUE(SaveParameters(path, {}).ok());
  std::vector<Parameter*> pa;
  a.CollectParameters(&pa);
  const Status st = LoadParameters(path, pa);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  std::remove(path.c_str());
}

TEST(Serialize, RepeatedNameIsInvalidArgument) {
  // As many entries as the model has parameters, but the first one twice
  // and the second not at all.
  Rng rng(9);
  Mlp a("net", {3, 5, 2}, &rng);
  std::vector<Parameter*> pa;
  a.CollectParameters(&pa);
  ASSERT_GE(pa.size(), 2u);
  std::vector<Parameter*> repeated = pa;
  repeated[1] = pa[0];
  const std::string path = testing::TempDir() + "/naru_params_repeated.bin";
  ASSERT_TRUE(SaveParameters(path, repeated).ok());
  const Status st = LoadParameters(path, pa);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find(pa[0]->name), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace naru
