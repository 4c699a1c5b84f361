// Indirect Γ dispatch (core/indirect.hpp): one host dispatch over a span of
// mixed-shape images must produce, for every image, the exact bits of the
// dense public conv2d path run on that image alone. Parity is by
// construction — both paths run detail::gamma_tile_column / detail::gemm_row
// over the per-class §5.5 plan — and these tests pin that contract across
// filter widths (α = 4..16 plans), ragged H/W mixes, GEMM-only execution,
// stride 2, and every host ISA this build carries.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "core/conv_api.hpp"
#include "core/filter_cache.hpp"
#include "core/host_kernels.hpp"
#include "core/indirect.hpp"
#include "tensor/tensor.hpp"

namespace iwg::core {
namespace {

struct RaggedImage {
  std::int64_t ih, iw;
  TensorF x;  // 1×IH×IW×IC
  TensorF y;  // 1×OH×OW×OC, indirect output
};

/// Dispatch geometry + a ragged batch drawn from `sizes`, data seeded so the
/// dense reference sees identical inputs.
struct RaggedCase {
  ConvShape geom;
  std::vector<RaggedImage> images;
  TensorF w;

  RaggedCase(std::int64_t fw, std::vector<std::pair<std::int64_t, std::int64_t>> sizes,
             unsigned seed = 9001) {
    geom.n = 1;
    geom.ic = 5;
    geom.oc = 7;
    geom.fh = 3;
    geom.fw = fw;
    geom.ph = 1;
    geom.pw = fw / 2;
    Rng data(seed);
    w.reset({geom.oc, geom.fh, geom.fw, geom.ic});
    w.fill_uniform(data, -1.0f, 1.0f);
    for (const auto& [ih, iw] : sizes) {
      RaggedImage img;
      img.ih = ih;
      img.iw = iw;
      img.x.reset({1, ih, iw, geom.ic});
      img.x.fill_uniform(data, -1.0f, 1.0f);
      const ConvShape s = shape_for(ih, iw);
      img.y.reset({1, s.oh(), s.ow(), geom.oc});
      images.push_back(std::move(img));
    }
  }

  ConvShape shape_for(std::int64_t ih, std::int64_t iw) const {
    ConvShape s = geom;
    s.ih = ih;
    s.iw = iw;
    s.validate();
    return s;
  }

  std::vector<ImageView> views() {
    std::vector<ImageView> v;
    for (RaggedImage& img : images) {
      v.push_back(ImageView{img.x.data(), img.y.data(), img.ih, img.iw});
    }
    return v;
  }
};

/// The bitwise assertion: not a tolerance — byte equality of the buffers.
void expect_bitwise(const TensorF& got, const TensorF& want,
                    const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  const bool same = std::memcmp(got.data(), want.data(),
                                static_cast<std::size_t>(got.size()) *
                                    sizeof(float)) == 0;
  if (!same) {
    // Locate the first differing element for the failure message.
    for (std::int64_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << what << " first diff at flat index " << i;
    }
  }
  EXPECT_TRUE(same) << what;
}

void check_parity(RaggedCase& c, const IndirectOptions& iopts,
                  const ConvOptions& dopts, const std::string& what) {
  auto v = c.views();
  conv2d_gamma_host_indirect(v, c.w, c.geom, iopts);
  for (std::size_t i = 0; i < c.images.size(); ++i) {
    const RaggedImage& img = c.images[i];
    const ConvShape s = c.shape_for(img.ih, img.iw);
    const TensorF want = conv2d(img.x, c.w, s, dopts);
    expect_bitwise(img.y, want,
                   what + " image " + std::to_string(i) + " shape " +
                       s.to_string());
  }
}

// The standard ragged mix: three shape classes, interleaved, with repeats —
// both spatial axes vary, classes don't arrive contiguously.
std::vector<std::pair<std::int64_t, std::int64_t>> mixed_sizes() {
  return {{8, 8}, {6, 10}, {8, 8}, {12, 6}, {6, 10}, {9, 16}, {8, 8}};
}

TEST(IndirectConv, MatchesDenseBitwisePerImageAcrossFilterWidths) {
  // fw 2..9 walks every Γα the planner selects (α = 4 up through 16).
  for (std::int64_t fw = 2; fw <= 9; ++fw) {
    RaggedCase c(fw, mixed_sizes(), 9000 + static_cast<unsigned>(fw));
    check_parity(c, IndirectOptions{}, ConvOptions{},
                 "fw=" + std::to_string(fw));
  }
}

TEST(IndirectConv, GemmOnlyPathMatchesDenseBitwise) {
  RaggedCase c(5, mixed_sizes(), 123);
  IndirectOptions iopts;
  iopts.use_winograd = false;
  ConvOptions dopts;
  dopts.use_winograd = false;
  check_parity(c, iopts, dopts, "gemm-only");
}

TEST(IndirectConv, SingleShapeClassMatchesDense) {
  // Degenerate mix: all images one shape — still one dispatch, one class.
  RaggedCase c(3, {{7, 9}, {7, 9}, {7, 9}}, 321);
  check_parity(c, IndirectOptions{}, ConvOptions{}, "single-class");
}

TEST(IndirectConv, SingleImageMatchesDense) {
  RaggedCase c(4, {{10, 11}}, 77);
  check_parity(c, IndirectOptions{}, ConvOptions{}, "single-image");
}

TEST(IndirectConv, EveryHostIsaBitwiseParity) {
  // The parity contract must hold under every kernel table this build/CPU
  // carries — each ISA's dense and indirect dispatches share that ISA's
  // SIMD bodies, so each is internally bitwise consistent.
  struct IsaRestore {
    HostIsa prev = host_isa();
    ~IsaRestore() { set_host_isa(prev); }
  } restore;
  for (const HostIsa isa : host_isa_available()) {
    ASSERT_NE(host_kernels_for(isa), nullptr) << host_isa_name(isa);
    ASSERT_TRUE(set_host_isa(isa));
    RaggedCase c(3, mixed_sizes(), 555);
    check_parity(c, IndirectOptions{}, ConvOptions{},
                 std::string("isa=") + host_isa_name(isa));
  }
}

TEST(IndirectConv, StrideTwoMatchesDenseBitwisePerImage) {
  // Stride 2 runs the implicit GEMM for every image; the ragged dispatch
  // and a dense batch-1 conv2d_strided share its task body, on every ISA.
  struct IsaRestore {
    HostIsa prev = host_isa();
    ~IsaRestore() { set_host_isa(prev); }
  } restore;
  for (const HostIsa isa : host_isa_available()) {
    ASSERT_TRUE(set_host_isa(isa));
    for (std::int64_t fw = 1; fw <= 9; ++fw) {
      RaggedCase c(fw, mixed_sizes(), 4000 + static_cast<unsigned>(fw));
      std::vector<TensorF> ys;
      std::vector<ImageView> v;
      for (const RaggedImage& img : c.images) {
        const ConvShape s = c.shape_for(img.ih, img.iw);
        ys.emplace_back(std::vector<std::int64_t>{
            1, strided_extent(s.oh(), 2), strided_extent(s.ow(), 2),
            c.geom.oc});
      }
      for (std::size_t i = 0; i < c.images.size(); ++i) {
        const RaggedImage& img = c.images[i];
        v.push_back(ImageView{img.x.data(), ys[i].data(), img.ih, img.iw});
      }
      conv2d_gamma_host_indirect(v, c.w, c.geom, IndirectOptions{}, 2);
      for (std::size_t i = 0; i < c.images.size(); ++i) {
        const RaggedImage& img = c.images[i];
        const ConvShape s = c.shape_for(img.ih, img.iw);
        expect_bitwise(ys[i], conv2d_strided(img.x, c.w, s, 2),
                       std::string(host_isa_name(isa)) + " fw=" +
                           std::to_string(fw) + " image " +
                           std::to_string(i) + " shape " + s.to_string());
      }
    }
  }
}

TEST(IndirectConv, FilterCacheRoutedDispatchMatchesUncached) {
  // Routing ĝ through the cross-call FilterTransformCache must not change
  // bits (the cache stores the same transform the memo would compute).
  RaggedCase cached(6, mixed_sizes(), 42);
  RaggedCase plain(6, mixed_sizes(), 42);
  FilterTransformCache cache;
  IndirectOptions iopts;
  iopts.fc.cache = &cache;
  iopts.fc.version = 1;
  auto cv = cached.views();
  conv2d_gamma_host_indirect(cv, cached.w, cached.geom, iopts);
  auto pv = plain.views();
  conv2d_gamma_host_indirect(pv, plain.w, plain.geom, IndirectOptions{});
  for (std::size_t i = 0; i < cached.images.size(); ++i) {
    expect_bitwise(cached.images[i].y, plain.images[i].y,
                   "cached vs uncached image " + std::to_string(i));
  }
}

TEST(IndirectConv, TableLayoutSharedZeroRowAndClassMapping) {
  RaggedCase c(3, {{8, 8}, {6, 10}, {8, 8}}, 7);
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  auto v = c.views();
  const IndirectionTable t =
      build_indirection_table(v, c.geom, arena);

  // Three images, two classes, repeats map back to the first class.
  ASSERT_EQ(t.images.size(), 3u);
  ASSERT_EQ(t.classes.size(), 2u);
  EXPECT_EQ(t.image_class[0], 0);
  EXPECT_EQ(t.image_class[1], 1);
  EXPECT_EQ(t.image_class[2], 0);
  for (const ConvShape& s : t.classes) EXPECT_EQ(s.n, 1);

  // Row table: index ihp + ph over [-ph, ih + ph). In-bounds rows alias the
  // input tensor's row ihp; padding rows are the shared zero row (nullptr)
  // — never materialized pad slots.
  for (std::size_t i = 0; i < t.images.size(); ++i) {
    const detail::ImageTask& img = t.images[i];
    const float* x = c.images[i].x.data();
    for (std::int64_t ihp = -c.geom.ph; ihp < img.ih + c.geom.ph; ++ihp) {
      const float* row = img.rows[ihp + c.geom.ph];
      if (ihp >= 0 && ihp < img.ih) {
        EXPECT_EQ(row, x + ihp * img.iw * c.geom.ic)
            << "image " << i << " row " << ihp;
      } else {
        EXPECT_EQ(row, nullptr) << "image " << i << " pad row " << ihp;
      }
    }
  }
}

TEST(IndirectConv, RepeatedDispatchIsDeterministic) {
  RaggedCase a(5, mixed_sizes(), 99);
  RaggedCase b(5, mixed_sizes(), 99);
  auto av = a.views();
  auto bv = b.views();
  conv2d_gamma_host_indirect(av, a.w, a.geom, IndirectOptions{});
  conv2d_gamma_host_indirect(bv, b.w, b.geom, IndirectOptions{});
  for (std::size_t i = 0; i < a.images.size(); ++i) {
    expect_bitwise(a.images[i].y, b.images[i].y,
                   "run-to-run image " + std::to_string(i));
  }
}

}  // namespace
}  // namespace iwg::core
