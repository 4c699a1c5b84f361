#include <gtest/gtest.h>

#include "tensor/conv_shape.hpp"
#include "tensor/tensor.hpp"

namespace iwg {
namespace {

TEST(Tensor, ShapeAndStrides) {
  TensorF t({2, 3, 4, 5});
  EXPECT_EQ(t.rank(), 4);
  EXPECT_EQ(t.size(), 120);
  EXPECT_EQ(t.offset(0, 0, 0, 1), 1);
  EXPECT_EQ(t.offset(0, 0, 1, 0), 5);
  EXPECT_EQ(t.offset(0, 1, 0, 0), 20);
  EXPECT_EQ(t.offset(1, 0, 0, 0), 60);
}

TEST(Tensor, AtRoundTrips) {
  TensorF t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 42.0f;
  EXPECT_EQ(t[t.size() - 1], 42.0f);
  t.at(0, 0, 0, 0) = -1.0f;
  EXPECT_EQ(t[0], -1.0f);
}

TEST(Tensor, LowerRanks) {
  TensorF v({7});
  EXPECT_EQ(v.rank(), 1);
  v.at(3, 0, 0, 0) = 1.0f;
  EXPECT_EQ(v[3], 1.0f);

  TensorF m({3, 4});
  m.at(2, 1, 0, 0) = 5.0f;
  EXPECT_EQ(m[2 * 4 + 1], 5.0f);
}

TEST(Tensor, FillAndCast) {
  TensorF t({4, 4});
  t.fill(2.5f);
  const TensorD d = t.cast<double>();
  EXPECT_EQ(d.size(), 16);
  for (std::int64_t i = 0; i < d.size(); ++i) EXPECT_DOUBLE_EQ(d[i], 2.5);
}

TEST(Tensor, FillUniformInRange) {
  Rng rng(3);
  TensorF t({100});
  t.fill_uniform(rng, 1.0f, 2.0f);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], 1.0f);
    EXPECT_LT(t[i], 2.0f);
  }
}

TEST(Tensor, SameShape) {
  TensorF a({2, 3});
  TensorF b({2, 3});
  TensorF c({3, 2});
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(Tensor, InvalidDimsThrow) {
  EXPECT_THROW(TensorF({0, 3}), Error);
  EXPECT_THROW(TensorF({2, -1}), Error);
  EXPECT_THROW(TensorF({1, 2, 3, 4, 5, 6}), Error);
}

TEST(Tensor, ReshapeKeepsElementsAndUninitializedHasShape) {
  TensorF t({2, 3, 4});
  for (std::int64_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  const float* data = t.data();
  t.reshape({6, 4});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.dim(0), 6);
  EXPECT_EQ(t.data(), data);  // no copy
  EXPECT_EQ(t.at(5, 3, 0, 0), 23.0f);
  EXPECT_THROW(t.reshape({5, 4}), Error);
  const TensorF u = TensorF::uninitialized({3, 5, 7});
  EXPECT_EQ(u.rank(), 3);
  EXPECT_EQ(u.size(), 105);
  EXPECT_EQ(u.offset(1, 2, 3, 0), 1 * 35 + 2 * 7 + 3);
}

TEST(Tensor, Rank5Volumes) {
  TensorF t({2, 3, 4, 5, 6});
  EXPECT_EQ(t.rank(), 5);
  EXPECT_EQ(t.size(), 720);
  t.at5(1, 2, 3, 4, 5) = 9.0f;
  EXPECT_EQ(t[t.size() - 1], 9.0f);
  EXPECT_EQ(t.offset5(0, 0, 0, 1, 0), 6);
  EXPECT_EQ(t.offset5(0, 0, 1, 0, 0), 30);
  EXPECT_EQ(t.offset5(1, 0, 0, 0, 0), 360);
}

TEST(ConvShape, OutputDims) {
  ConvShape s{.n = 2, .ih = 8, .iw = 10, .ic = 3, .oc = 4, .fh = 3, .fw = 3,
              .ph = 1, .pw = 1};
  EXPECT_EQ(s.oh(), 8);
  EXPECT_EQ(s.ow(), 10);
  s.ph = 0;
  s.pw = 0;
  EXPECT_EQ(s.oh(), 6);
  EXPECT_EQ(s.ow(), 8);
}

TEST(ConvShape, FlopsFormula) {
  ConvShape s{.n = 1, .ih = 4, .iw = 4, .ic = 2, .oc = 3, .fh = 3, .fw = 3,
              .ph = 1, .pw = 1};
  // 2·N·OC·OH·OW·FH·FW·IC = 2·1·3·4·4·3·3·2
  EXPECT_DOUBLE_EQ(s.flops(), 2.0 * 3 * 4 * 4 * 3 * 3 * 2);
}

TEST(ConvShape, FromOfms) {
  // Paper Fig. 8 shape: 128×48×48×128, r = 5.
  const ConvShape s = ConvShape::from_ofms(128, 48, 48, 128, 5);
  EXPECT_EQ(s.n, 128);
  EXPECT_EQ(s.ic, 128);
  EXPECT_EQ(s.oc, 128);
  EXPECT_EQ(s.fh, 5);
  EXPECT_EQ(s.ph, 2);
  EXPECT_EQ(s.oh(), 48);
  EXPECT_EQ(s.ow(), 48);
}

TEST(ConvShape, ValidateRejectsEmptyOutput) {
  ConvShape s{.n = 1, .ih = 2, .iw = 2, .ic = 1, .oc = 1, .fh = 5, .fw = 5,
              .ph = 0, .pw = 0};
  EXPECT_THROW(s.validate(), Error);
}

}  // namespace
}  // namespace iwg
