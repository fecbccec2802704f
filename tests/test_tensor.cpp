// Unit tests for the Tensor value type.
#include <gtest/gtest.h>

#include <stdexcept>

#include "nn/tensor.h"

using rdo::nn::Rng;
using rdo::nn::Tensor;

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.size(), 0);
  EXPECT_EQ(t.rank(), 0);
}

TEST(Tensor, ShapeAndSize) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3);
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(2), 4);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({5, 5});
  for (std::int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, RejectsNonPositiveDims) {
  EXPECT_THROW(Tensor({2, 0}), std::invalid_argument);
  EXPECT_THROW(Tensor({-1, 3}), std::invalid_argument);
}

TEST(Tensor, Matrix2DIndexing) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[1 * 3 + 2], 7.0f);
  EXPECT_EQ(t.at(1, 2), 7.0f);
}

TEST(Tensor, Nchw4DIndexing) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  for (std::int64_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.rank(), 2);
  EXPECT_EQ(r.dim(0), 3);
  for (std::int64_t i = 0; i < 12; ++i) EXPECT_EQ(r[i], static_cast<float>(i));
}

TEST(Tensor, ReshapeRejectsSizeMismatch) {
  Tensor t({2, 6});
  EXPECT_THROW(t.reshaped({5, 3}), std::invalid_argument);
}

TEST(Tensor, FillAndZero) {
  Tensor t({4});
  t.fill(2.5f);
  EXPECT_EQ(t.sum(), 10.0f);
  t.zero();
  EXPECT_EQ(t.sum(), 0.0f);
}

TEST(Tensor, AxpyAccumulates) {
  Tensor a({3}), b({3});
  a.fill(1.0f);
  b.fill(2.0f);
  a.axpy(0.5f, b);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a[i], 2.0f);
}

TEST(Tensor, AxpyRejectsSizeMismatch) {
  Tensor a({3}), b({4});
  EXPECT_THROW(a.axpy(1.0f, b), std::invalid_argument);
}

TEST(Tensor, Scale) {
  Tensor a({2});
  a.fill(3.0f);
  a.scale(-2.0f);
  EXPECT_FLOAT_EQ(a[0], -6.0f);
}

TEST(Tensor, MaxAbs) {
  Tensor a({3});
  a[0] = -5.0f;
  a[1] = 2.0f;
  a[2] = 4.0f;
  EXPECT_FLOAT_EQ(a.max_abs(), 5.0f);
}

TEST(Tensor, KaimingInitStatistics) {
  Rng rng(3);
  Tensor t({100, 50});
  t.kaiming_init(rng, 100);
  const float target_std = std::sqrt(2.0f / 100.0f);
  double mean = 0.0, var = 0.0;
  for (std::int64_t i = 0; i < t.size(); ++i) mean += t[i];
  mean /= static_cast<double>(t.size());
  for (std::int64_t i = 0; i < t.size(); ++i) {
    var += (t[i] - mean) * (t[i] - mean);
  }
  var /= static_cast<double>(t.size());
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(var), target_std, 0.01);
}

TEST(Tensor, UniformInitRange) {
  Rng rng(4);
  Tensor t({1000});
  t.uniform_init(rng, -0.25f, 0.75f);
  float mn = 1e9f, mx = -1e9f;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    mn = std::min(mn, t[i]);
    mx = std::max(mx, t[i]);
  }
  EXPECT_GE(mn, -0.25f);
  EXPECT_LT(mx, 0.75f);
  EXPECT_LT(mn, -0.1f);  // actually explores the range
  EXPECT_GT(mx, 0.6f);
}

TEST(Tensor, ShapeStr) {
  Tensor t({2, 3});
  EXPECT_EQ(t.shape_str(), "[2, 3]");
}

TEST(Tensor, CopyIsDeep) {
  Tensor a({2});
  a.fill(1.0f);
  Tensor b = a;
  b[0] = 5.0f;
  EXPECT_EQ(a[0], 1.0f);
}

TEST(Tensor, NumelHelper) {
  EXPECT_EQ(Tensor::numel({2, 3, 4}), 24);
  EXPECT_EQ(Tensor::numel({7}), 7);
}

TEST(Rng, NormalWithZeroDeviationReturnsTheMeanExactly) {
  // An ideal device (sigma = 0) draws with stddev 0, which
  // std::normal_distribution forbids; Rng::normal scales a standard
  // draw instead, so the result is exactly the mean.
  Rng rng(9);
  for (const double m : {0.0, 1.5, -3.25, 255.0}) {
    EXPECT_EQ(rng.normal(m, 0.0), m);
  }
}

TEST(Rng, NormalDrawsArePinned) {
  // Golden draws: scaling N(0, 1) must keep every stream bit-identical
  // to drawing N(mean, stddev) directly.
  Rng a(42);
  EXPECT_EQ(a.normal(0.0, 1.0), 0x1.68f438d8aec29p-1);
  EXPECT_EQ(a.normal(1.5, 0.25), 0x1.5b4207db15507p+0);
  EXPECT_EQ(a.normal(-3.0, 2.0), -0x1.b40e43efe7981p+2);
  EXPECT_EQ(a.normal(), -0x1.72c03dadaa429p-1);
  Rng b(7);
  EXPECT_EQ(b.normal(0.0, 0.1), 0x1.6574b8822f279p-4);
  EXPECT_EQ(b.normal(10.0, 3.0), 0x1.748ab0bcb327ap+3);
}
