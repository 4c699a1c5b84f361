#include "core/gamma_host.hpp"

#include <algorithm>
#include <utility>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/filter_cache.hpp"
#include "core/host_kernels.hpp"
#include "winograd/plan.hpp"

namespace iwg::core {

namespace detail {

void fill_row_table(const float** rows, const float* x, std::int64_t ih,
                    std::int64_t iw, std::int64_t ic, std::int64_t ph) {
  for (std::int64_t ihp = -ph; ihp < ih + ph; ++ihp) {
    rows[ihp + ph] =
        (ihp >= 0 && ihp < ih) ? x + ihp * iw * ic : nullptr;
  }
}

// One (image, tile column) task; it walks the OH output rows in blocks of
// kRowBlock with a ring of the transformed input rows the block can see
// (slot = ihp mod ring_rows), so d̂(ihp) is computed once and reused by
// every filter row that reads it. Row-blocking is what lets the
// accumulation run through axpy_rank1_multi: the kRowBlock output rows of
// a block consume the same ĝ[fh][t] planes, so the blocked kernel loads
// each ĝ vector once and feeds kRowBlock FMA chains with it — a single
// rank-1 update is load-bound at one ĝ load per FMA and leaves the FMA
// units half idle.
// 16 output rows per block = two octet passes of the 8-row kernel. The
// block size sets how often ĝ is streamed from L2 (once per block), and
// the second octet of a block reuses the (fh, t) plane the first octet
// just pulled into L1 — at 64×64 channels ĝ is ~0.5 MB per segment, so
// halving the passes is worth more than the larger macc footprint.
//
// Input rows arrive exclusively through img.rows: the dense path points the
// table into a batch tensor, the indirect path into per-image buffers, and
// padding rows are nullptr either way — so the ring, the kernels, and every
// accumulation order are identical for both callers.
void gamma_tile_column(const ImageTask& img, const ConvShape& geom,
                       const GammaConfig& cfg, const WinogradPlan& plan,
                       const float* ghat, const HostKernels& hk,
                       std::int64_t ow_start, std::int64_t tw) {
  const int alpha = cfg.alpha;
  const int n_out = cfg.n;
  const float* bt = plan.bt_f.data();
  const std::int64_t dstride = static_cast<std::int64_t>(alpha) * geom.ic;
  const std::int64_t gstride = geom.ic * geom.oc;  // one ĝ[fh][t] plane
  constexpr std::int64_t kRowBlock = 16;
  const std::int64_t ring_rows = geom.fh + kRowBlock - 1;
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  float* ring =
      arena.alloc_floats(static_cast<std::size_t>(ring_rows * dstride));
  float* macc = arena.alloc_floats(
      static_cast<std::size_t>(kRowBlock * alpha * geom.oc));
  const std::int64_t iw0 = ow_start + tw * n_out - geom.pw;
  // The α taps of one tile are NHWC row slices IC floats apart: the
  // transform runs lane-parallel over channels, in-bounds taps as
  // contiguous loads, padding taps as null rows (DESIGN §8).
  const float* taps[16];
  std::int64_t next_row = -geom.ph;  // next input row to transform
  for (std::int64_t hi0 = 0; hi0 < img.oh; hi0 += kRowBlock) {
    const std::int64_t rb = std::min(kRowBlock, img.oh - hi0);
    const std::int64_t win_hi = hi0 + rb - 1 - geom.ph + geom.fh;  // excl.
    for (; next_row < win_hi; ++next_row) {
      const float* xrow = img.rows[next_row + geom.ph];
      if (xrow == nullptr) continue;  // zero padding
      float* slot = ring + (next_row % ring_rows) * dstride;
      for (int e = 0; e < alpha; ++e) {
        const std::int64_t iw = iw0 + e;
        taps[e] = (iw >= 0 && iw < img.iw) ? xrow + iw * geom.ic : nullptr;
      }
      hk.transform_cols(bt, alpha, alpha, taps, geom.ic, slot, geom.ic);
    }
    // State-domain accumulation: per filter row, α blocked rank-1
    // updates (rb×IC)·(IC×OC); output rows whose input row falls in the
    // zero padding pass a null d̂ and are skipped by the kernel.
    std::fill(macc, macc + rb * alpha * geom.oc, 0.0f);
    const float* drow[kRowBlock];
    const float* ds[kRowBlock];
    float* ms[kRowBlock];
    for (std::int64_t fh = 0; fh < geom.fh; ++fh) {
      bool any = false;
      for (std::int64_t r = 0; r < rb; ++r) {
        const std::int64_t ihp = hi0 + r - geom.ph + fh;
        const bool valid = img.rows[ihp + geom.ph] != nullptr;
        drow[r] = valid ? ring + (ihp % ring_rows) * dstride : nullptr;
        any = any || valid;
      }
      if (!any) continue;  // every row of the block sees zero padding
      const float* gbase = ghat + fh * alpha * gstride;
      for (int t = 0; t < alpha; ++t) {
        for (std::int64_t r = 0; r < rb; ++r) {
          ds[r] = drow[r] != nullptr
                      ? drow[r] + static_cast<std::int64_t>(t) * geom.ic
                      : nullptr;
          ms[r] = macc + (r * alpha + t) * geom.oc;
        }
        hk.axpy_rank1_multi(ds, gbase + static_cast<std::int64_t>(t) *
                                            gstride,
                            ms, static_cast<int>(rb), geom.ic, geom.oc);
      }
    }
    // Output transform: y[i][oc] = Σ_t A^T[i][t] · m[t][oc], per row.
    for (std::int64_t r = 0; r < rb; ++r) {
      const float* mrow = macc + r * alpha * geom.oc;
      for (int i = 0; i < n_out; ++i) {
        float* yrow = img.y + ((hi0 + r) * img.ow + ow_start + tw * n_out +
                               i) * geom.oc;
        const float* at_row =
            &plan.at_f[static_cast<std::size_t>(i) * alpha];
        hk.out_transform(at_row, alpha, mrow, geom.oc, yrow, geom.oc);
      }
    }
  }
}

// Tap-outer, pixel-block-inner: one tap's IC×OC panel plane serves every
// block of the row while it is hot, and each call reuses every loaded plane
// vector across the block's up-to-8 accumulator rows (the Γ accumulate's
// register blocking). Per element the taps still arrive in ascending
// (fh, fw) order, so the sum order is the patch-times-filter dot product's
// — minus the padding zeros.
void gemm_row(const ImageTask& img, const ConvShape& geom, const float* panel,
              const HostKernels& hk, std::int64_t stride, std::int64_t hi,
              std::int64_t ow_start, std::int64_t ow_len) {
  constexpr std::int64_t kPixBlock = 8;
  const std::int64_t plane = geom.ic * geom.oc;
  float* yrow = img.y + (hi * img.ow + ow_start) * geom.oc;
  std::fill(yrow, yrow + ow_len * geom.oc, 0.0f);
  // rows[fh] is input row hi·stride + fh − ph (nullptr inside the padding).
  const float* const* rows = img.rows + hi * stride;
  const float* ds[kPixBlock];
  float* ms[kPixBlock];
  for (std::int64_t fh = 0; fh < geom.fh; ++fh) {
    const float* xrow = rows[fh];
    if (xrow == nullptr) continue;
    for (std::int64_t fw = 0; fw < geom.fw; ++fw) {
      const float* g = panel + (fh * geom.fw + fw) * plane;
      for (std::int64_t p0 = 0; p0 < ow_len; p0 += kPixBlock) {
        const std::int64_t nb = std::min(kPixBlock, ow_len - p0);
        const std::int64_t iw0 = (ow_start + p0) * stride + fw - geom.pw;
        bool any = false;
        for (std::int64_t r = 0; r < nb; ++r) {
          const std::int64_t iw = iw0 + r * stride;
          ds[r] = iw >= 0 && iw < img.iw ? xrow + iw * geom.ic : nullptr;
          ms[r] = yrow + (p0 + r) * geom.oc;
          any = any || ds[r] != nullptr;
        }
        if (any) {
          hk.axpy_rank1_multi(ds, g, ms, static_cast<int>(nb), geom.ic,
                              geom.oc);
        }
      }
    }
  }
}

// Dense batch as an ImageTask array: one row table per image, bump-allocated
// from the caller's arena (valid across the blocking parallel_for below —
// task bodies open nested scopes on their own threads' arenas).
std::vector<ImageTask> dense_tasks(const TensorF& x, TensorF& y,
                                   const ConvShape& s, std::int64_t stride,
                                   ScratchArena& arena) {
  const std::int64_t table_len = s.ih + 2 * s.ph;
  const std::int64_t oh = strided_extent(s.oh(), stride);
  const std::int64_t ow = strided_extent(s.ow(), stride);
  std::vector<ImageTask> tasks(static_cast<std::size_t>(s.n));
  for (std::int64_t ni = 0; ni < s.n; ++ni) {
    auto** rows = static_cast<const float**>(
        arena.alloc(static_cast<std::size_t>(table_len) * sizeof(float*)));
    fill_row_table(rows, x.data() + ni * s.ih * s.iw * s.ic, s.ih, s.iw,
                   s.ic, s.ph);
    ImageTask& t = tasks[static_cast<std::size_t>(ni)];
    t.rows = rows;
    t.y = y.data() + ni * oh * ow * s.oc;
    t.ih = s.ih;
    t.iw = s.iw;
    t.oh = oh;
    t.ow = ow;
  }
  return tasks;
}

template <class Compute>
const float* TransformMemo::get(int alpha, int r, const Compute& compute) {
  const std::pair<int, int> geom{alpha, r};
  for (const auto& e : memo_) {
    if (e.first == geom) {
      filter_transform_hits().add();
      return e.second->data();
    }
  }
  FilterTransformCache::Ghat t;
  if (fc_.cache != nullptr) {
    FilterTransformCache::Key key;
    key.weights =
        fc_.key != nullptr ? fc_.key : static_cast<const void*>(w_.data());
    key.version = fc_.version;
    key.alpha = alpha;
    key.r = r;
    key.deconv = fc_.deconv;
    t = fc_.cache->get_or_compute(key, compute);
  } else {
    filter_transform_misses().add();
    t = std::make_shared<const Buffer<float>>(compute());
  }
  memo_.emplace_back(geom, std::move(t));
  return memo_.back().second->data();
}

const float* TransformMemo::ghat(const ConvShape& s, const GammaConfig& cfg) {
  return get(cfg.alpha, cfg.r, [&] {
    return fc_.deconv ? deconv_transform_filter_host(w_, cfg)
                      : transform_filter_host(w_, s, cfg);
  });
}

const float* TransformMemo::panel() {
  return get(kGemmPanelAlpha, static_cast<int>(w_.dim(2)), [&] {
    return fc_.deconv ? deconv_gemm_panel_host(w_) : gemm_panel_host(w_);
  });
}

}  // namespace detail

namespace {

/// Implicit-GEMM convolution over one OW segment at `stride`, against the
/// weight panel; writes into `y` in place.
void conv2d_gemm_host_segment(const TensorF& x, const float* panel,
                              const ConvShape& s, std::int64_t stride,
                              std::int64_t ow_start, std::int64_t ow_len,
                              TensorF& y) {
  const HostKernels& hk = host_kernels();
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  const std::vector<detail::ImageTask> tasks =
      detail::dense_tasks(x, y, s, stride, arena);

  const std::int64_t oh = tasks.front().oh;
  const std::int64_t rows = s.n * oh;
  parallel_for(rows, parallel_grain(rows), [&](std::int64_t row) {
    detail::gemm_row(tasks[static_cast<std::size_t>(row / oh)], s, panel, hk,
                     stride, row % oh, ow_start, ow_len);
  });
}

}  // namespace

void conv2d_gamma_host_segment_pretransformed(
    const TensorF& x, const float* ghat, const ConvShape& s,
    const GammaConfig& cfg, std::int64_t ow_start, std::int64_t ow_len,
    TensorF& y) {
  s.validate();
  IWG_CHECK(cfg.r == s.fw);
  IWG_CHECK(ow_len % cfg.n == 0);
  IWG_CHECK(ow_start >= 0 && ow_start + ow_len <= s.ow());
  const WinogradPlan& plan = get_plan(cfg.n, cfg.r);
  const HostKernels& hk = host_kernels();
  const std::int64_t tiles_w = ow_len / cfg.n;

  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  const std::vector<detail::ImageTask> tasks =
      detail::dense_tasks(x, y, s, 1, arena);

  const std::int64_t cols = s.n * tiles_w;
  parallel_for(cols, parallel_grain(cols), [&](std::int64_t col) {
    const std::int64_t ni = col / tiles_w;
    const std::int64_t tw = col % tiles_w;
    detail::gamma_tile_column(tasks[static_cast<std::size_t>(ni)], s, cfg,
                              plan, ghat, hk, ow_start, tw);
  });
}

void conv2d_gamma_host_segment(const TensorF& x, const TensorF& w,
                               const ConvShape& s, const GammaConfig& cfg,
                               std::int64_t ow_start, std::int64_t ow_len,
                               TensorF& y) {
  const Buffer<float> ghat = transform_filter_host(w, s, cfg);
  conv2d_gamma_host_segment_pretransformed(x, ghat.data(), s, cfg, ow_start,
                                           ow_len, y);
}

namespace {

/// The boundary plan's segments in order, against the memo's transforms.
TensorF run_plan(const TensorF& x, const ConvShape& s,
                 const std::vector<Segment>& plan,
                 detail::TransformMemo& transforms, std::int64_t stride) {
  IWG_TRACE_SPAN(conv_span, "conv2d_host", "host");
  if (conv_span.active()) {
    conv_span.arg("shape", s.to_string())
        .arg("segments", static_cast<std::int64_t>(plan.size()))
        .arg("isa", host_kernels().name);
    if (stride != 1) conv_span.arg("stride", stride);
  }
  static trace::Counter& gamma_segs =
      trace::MetricsRegistry::global().counter("conv.segments_gamma");
  static trace::Counter& gemm_segs =
      trace::MetricsRegistry::global().counter("conv.segments_gemm");
  const std::int64_t ow = strided_extent(s.ow(), stride);
  // No zero fill: the segments must cover OW (checked below), a Γ segment's
  // output transform writes every row of its columns, and gemm_row zeroes
  // its own rows before it accumulates.
  TensorF y = TensorF::uninitialized({s.n, strided_extent(s.oh(), stride),
                                      ow, s.oc});

  std::int64_t covered = 0;
  for (const Segment& seg : plan) {
    IWG_CHECK_MSG(seg.ow_start == covered, "boundary plan has gaps");
    IWG_CHECK_MSG(seg.is_gemm || stride == 1, "Γ segments need unit stride");
    IWG_TRACE_SPAN(span, seg.is_gemm ? "gemm_host" : "gamma_host", "host");
    if (span.active()) {
      span.arg("ow_start", seg.ow_start).arg("ow_len", seg.ow_len);
      if (!seg.is_gemm) {
        span.arg("alpha", seg.cfg.alpha)
            .arg("n", seg.cfg.n)
            .arg("r", seg.cfg.r)
            .arg("variant", variant_name(seg.cfg.variant));
      }
    }
    if (seg.is_gemm) {
      gemm_segs.add();
      conv2d_gemm_host_segment(x, transforms.panel(), s, stride, seg.ow_start,
                               seg.ow_len, y);
    } else {
      gamma_segs.add();
      conv2d_gamma_host_segment_pretransformed(
          x, transforms.ghat(s, seg.cfg), s, seg.cfg, seg.ow_start,
          seg.ow_len, y);
    }
    covered += seg.ow_len;
  }
  IWG_CHECK_MSG(covered == ow, "boundary plan does not cover OW");
  return y;
}

}  // namespace

TensorF conv2d_gamma_host(const TensorF& x, const TensorF& w,
                          const ConvShape& s,
                          const std::vector<Segment>& plan,
                          const FilterCacheRef& fc, std::int64_t stride) {
  s.validate();
  IWG_CHECK(stride >= 1);
  IWG_CHECK(!fc.deconv);
  IWG_CHECK(x.rank() == 4 && x.dim(0) == s.n && x.dim(1) == s.ih &&
            x.dim(2) == s.iw && x.dim(3) == s.ic);
  IWG_CHECK(w.rank() == 4 && w.dim(0) == s.oc && w.dim(1) == s.fh &&
            w.dim(2) == s.fw && w.dim(3) == s.ic);
  detail::TransformMemo transforms(w, fc);
  return run_plan(x, s, plan, transforms, stride);
}

TensorF deconv2d_gamma_host(const TensorF& dy, const TensorF& w,
                            const ConvShape& s,
                            const std::vector<Segment>& plan,
                            const FilterCacheRef& fc) {
  IWG_TRACE_SCOPE("deconv2d_host", "host");
  // Equivalent forward problem: rotated/channel-swapped filter, flipped pad.
  ConvShape ds;
  ds.n = s.n;
  ds.ih = s.oh();
  ds.iw = s.ow();
  ds.ic = s.oc;
  ds.oc = s.ic;
  ds.fh = s.fh;
  ds.fw = s.fw;
  ds.ph = s.fh - 1 - s.ph;
  ds.pw = s.fw - 1 - s.pw;
  ds.validate();
  IWG_CHECK(ds.oh() == s.ih && ds.ow() == s.iw);
  IWG_CHECK(dy.rank() == 4 && dy.dim(0) == ds.n && dy.dim(1) == ds.ih &&
            dy.dim(2) == ds.iw && dy.dim(3) == ds.ic);
  IWG_CHECK(w.rank() == 4 && w.dim(0) == s.oc && w.dim(1) == s.fh &&
            w.dim(2) == s.fw && w.dim(3) == s.ic);
  // The memo's deconv mode reads the rotated/channel-swapped filter out of
  // `w` in place, and its cache entries stay keyed on the original weights;
  // the deconv flag separates them from the forward transforms.
  FilterCacheRef dfc = fc;
  dfc.key = fc.key != nullptr ? fc.key : static_cast<const void*>(w.data());
  dfc.deconv = true;
  detail::TransformMemo transforms(w, dfc);
  return run_plan(dy, ds, plan, transforms, 1);
}

}  // namespace iwg::core

namespace iwg::core {

namespace {

// dW's scratch per call, in the calling thread's arena: one K-chunk of
// both operand panels (allocated first, as one piece) and the accumulators
// of one pass over a group of row blocks. A panel chunk holds at least one
// dY row and its halo, and a pass at least one row block, so a layer whose
// single row or block is larger exceeds these bounds.
constexpr std::int64_t kGradPanelFloats = std::int64_t{1} << 17;  // 512 KiB
constexpr std::int64_t kGradAccFloats = std::int64_t{160} << 10;  // 640 KiB
// Accumulator rows per GEMM task: one axpy_rank1_multi octet.
constexpr std::int64_t kGradRowBlock = 8;
// Images per transpose group when a panel is stored K-contiguous.
constexpr std::int64_t kGradImageGroup = 16;

/// One operand panel of the Γ-domain weight gradient: the α-point
/// transforms of every (image row, tile, image) window of a run of image
/// rows, K ordered (row, tile, image) with the image innermost so that a
/// filter-row shift is a contiguous offset of K. The lane operand keeps
/// each transform's output rows whole, [t][k][c]; the row operand is
/// stored K-contiguous, [t][c][k], because axpy_rank1_multi reads each
/// accumulator row's coefficients as one run.
struct GradPanel {
  float* data = nullptr;
  std::int64_t first = 0;  ///< first image row stored
  std::int64_t rows = 0;   ///< image rows stored
  std::int64_t k_cap = 0;  ///< K stride of a t plane (or of a [t][c] row)
  std::int64_t c = 0;      ///< channels
  bool k_inner = false;    ///< [t][c][k] rather than [t][k][c]
};

/// Transforms the windows of every image at (image row, tile) into `p`.
/// taps_of(n, row, tile, taps) fills the `cols` source rows of one window
/// (nullptr for zero padding).
template <class Taps>
void fill_grad_panel(const GradPanel& p, const float* mat, int alpha,
                     int cols, std::int64_t row, std::int64_t tw,
                     std::int64_t tiles_w, std::int64_t n_images,
                     const Taps& taps_of, const HostKernels& hk) {
  const float* taps[16];
  const std::int64_t k0 = ((row - p.first) * tiles_w + tw) * n_images;
  if (!p.k_inner) {
    for (std::int64_t n = 0; n < n_images; ++n) {
      taps_of(n, row, tw, taps);
      hk.transform_cols(mat, alpha, cols, taps, p.c, p.data + (k0 + n) * p.c,
                        p.k_cap * p.c);
    }
    return;
  }
  // K-contiguous: transform a group of images, then write each (t, c) row's
  // run of images at once.
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  const std::int64_t win = alpha * p.c;
  float* tmp = arena.alloc_floats(
      static_cast<std::size_t>(std::min(kGradImageGroup, n_images) * win));
  for (std::int64_t n0 = 0; n0 < n_images; n0 += kGradImageGroup) {
    const std::int64_t nn = std::min(kGradImageGroup, n_images - n0);
    for (std::int64_t n = 0; n < nn; ++n) {
      taps_of(n0 + n, row, tw, taps);
      hk.transform_cols(mat, alpha, cols, taps, p.c, tmp + n * win, p.c);
    }
    for (std::int64_t tc = 0; tc < win; ++tc) {
      float* dst = p.data + tc * p.k_cap + k0 + n0;
      for (std::int64_t n = 0; n < nn; ++n) dst[n] = tmp[n * win + tc];
    }
  }
}

}  // namespace

TensorF conv2d_filter_grad_winograd(const TensorF& x, const TensorF& dy,
                                    const ConvShape& s) {
  IWG_TRACE_SCOPE("filter_grad_host", "host");
  s.validate();
  IWG_CHECK_MSG(s.fw >= 2 && s.fw <= 9,
                "winograd filter gradient supports filter widths 2-9");
  IWG_CHECK(x.rank() == 4 && x.dim(0) == s.n && x.dim(1) == s.ih &&
            x.dim(2) == s.iw && x.dim(3) == s.ic);
  IWG_CHECK(dy.rank() == 4 && dy.dim(0) == s.n && dy.dim(1) == s.oh() &&
            dy.dim(2) == s.ow() && dy.dim(3) == s.oc);

  // F(fw, m): fw outputs (the filter taps along W), m dY taps per tile.
  const int alpha = s.fw <= 7 ? 8 : 16;
  const int m = alpha + 1 - static_cast<int>(s.fw);
  const WinogradPlan& plan = get_plan(static_cast<int>(s.fw), m);
  const HostKernels& hk = host_kernels();

  const std::int64_t oh = s.oh();
  const std::int64_t ow = s.ow();
  const std::int64_t tiles_w = (ow + m - 1) / m;  // zero-padded tail tiles

  // dW as α independent GEMMs per filter row, m̂[fh][t] = D̂[t]ᵀ·Ĝ[t], whose
  // K axis runs over (row, tile, image) — DESIGN §8, "Training passes".
  // The lane axis is IC when IC fills whole vectors (or is the wider
  // side), so out_transform writes dW rows in place; otherwise OC.
  const bool ic_lanes = s.ic % 8 == 0 || s.ic >= s.oc;
  const std::int64_t lanes = ic_lanes ? s.ic : s.oc;
  const std::int64_t acc_rows = ic_lanes ? s.oc : s.ic;
  const std::int64_t row_k = tiles_w * s.n;  // K entries per image row
  // When both panels of the whole K fit, they are built once and every pass
  // over the row blocks reuses them; otherwise each pass walks K-chunks of
  // dY rows of equal height, each with the input-row halo it reads.
  const std::int64_t blocks = (acc_rows + kGradRowBlock - 1) / kGradRowBlock;
  const std::int64_t block_acc = s.fh * alpha * kGradRowBlock * lanes;
  const std::int64_t panel_row = alpha * row_k;  // floats per row·channel
  const std::int64_t halo = s.fh - 1;
  const bool one_chunk =
      panel_row * (s.ih * s.ic + oh * s.oc) <= kGradPanelFloats;
  std::int64_t chunk = oh;
  if (!one_chunk) {
    chunk = std::clamp<std::int64_t>(
        (kGradPanelFloats / panel_row - halo * s.ic) / (s.ic + s.oc), 1, oh);
    const std::int64_t chunks = (oh + chunk - 1) / chunk;
    chunk = (oh + chunks - 1) / chunks;
  }
  const std::int64_t x_cap = std::min(s.ih, chunk + halo) * row_k;
  const std::int64_t y_cap = chunk * row_k;
  const std::int64_t pass_blocks =
      std::clamp<std::int64_t>(kGradAccFloats / block_acc, 1, blocks);
  const std::int64_t pass_rows =
      std::min(acc_rows, pass_blocks * kGradRowBlock);

  // The output transform below writes every (oc, fh, j, ic): no zero fill.
  TensorF dw = TensorF::uninitialized({s.oc, s.fh, s.fw, s.ic});
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  GradPanel xp;  // D̂: the α-wide X windows, B^T-transformed
  xp.data = arena.alloc_floats(
      static_cast<std::size_t>(alpha * (x_cap * s.ic + y_cap * s.oc)));
  xp.k_cap = x_cap;
  xp.c = s.ic;
  xp.k_inner = !ic_lanes;
  GradPanel yp;  // Ĝ: the m-tap dY tiles, G-transformed
  yp.data = xp.data + alpha * x_cap * s.ic;
  yp.k_cap = y_cap;
  yp.c = s.oc;
  yp.k_inner = ic_lanes;
  float* macc = arena.alloc_floats(
      static_cast<std::size_t>(s.fh * alpha * pass_rows * lanes));
  const GradPanel& lane_p = ic_lanes ? xp : yp;
  const GradPanel& row_p = ic_lanes ? yp : xp;

  auto x_taps = [&](std::int64_t n, std::int64_t ih, std::int64_t tw,
                    const float** taps) {
    const std::int64_t iw0 = tw * m - s.pw;
    for (int e = 0; e < alpha; ++e) {
      const std::int64_t iw = iw0 + e;
      taps[e] = iw >= 0 && iw < s.iw ? &x.at(n, ih, iw, 0) : nullptr;
    }
  };
  auto y_taps = [&](std::int64_t n, std::int64_t h, std::int64_t tw,
                    const float** taps) {
    const std::int64_t ow0 = tw * m;
    for (int i = 0; i < m; ++i) {
      taps[i] = ow0 + i < ow ? &dy.at(n, h, ow0 + i, 0) : nullptr;
    }
  };

  for (std::int64_t b0 = 0; b0 < blocks; b0 += pass_blocks) {
    const std::int64_t b1 = std::min(blocks, b0 + pass_blocks);
    const std::int64_t r_first = b0 * kGradRowBlock;
    const std::int64_t r_end = std::min(acc_rows, b1 * kGradRowBlock);
    for (std::int64_t h0 = 0; h0 < oh; h0 += chunk) {
      const std::int64_t h1 = std::min(oh, h0 + chunk);
      // Input rows any (dY row, filter row) pair of this chunk reads.
      xp.first = std::max<std::int64_t>(0, h0 - s.ph);
      xp.rows = std::max<std::int64_t>(
          0, std::min(s.ih, h1 + halo - s.ph) - xp.first);
      yp.first = h0;
      yp.rows = h1 - h0;
      const std::int64_t build =
          one_chunk && b0 > 0 ? 0 : (xp.rows + yp.rows) * tiles_w;
      parallel_for(build, parallel_grain(build), [&](std::int64_t job) {
        const std::int64_t row = job / tiles_w;
        const std::int64_t tw = job % tiles_w;
        if (row < xp.rows) {
          fill_grad_panel(xp, plan.bt_f.data(), alpha, alpha, xp.first + row,
                          tw, tiles_w, s.n, x_taps, hk);
        } else {
          fill_grad_panel(yp, plan.g_f.data(), alpha, m,
                          yp.first + row - xp.rows, tw, tiles_w, s.n, y_taps,
                          hk);
        }
      });
      // One task per (t, block of accumulator rows): it owns those rows of
      // every filter row, so no two tasks write one float.
      parallel_for(alpha * (b1 - b0), [&](std::int64_t task) {
        const std::int64_t t = task / (b1 - b0);
        const std::int64_t r0 = (b0 + task % (b1 - b0)) * kGradRowBlock;
        const std::int64_t nb = std::min(kGradRowBlock, acc_rows - r0);
        const float* ds[kGradRowBlock];
        float* ms[kGradRowBlock];
        for (std::int64_t fh = 0; fh < s.fh; ++fh) {
          float* mt = macc + ((fh * alpha + t) * pass_rows + r0 - r_first) *
                                 lanes;
          if (h0 == 0) std::fill(mt, mt + nb * lanes, 0.0f);
          // dY rows h of the chunk whose input row h + fh − ph exists.
          const std::int64_t ha = std::max(h0, s.ph - fh);
          const std::int64_t hb = std::min(h1, s.ih + s.ph - fh);
          if (ha >= hb) continue;
          const std::int64_t ky = (ha - yp.first) * row_k;
          const std::int64_t kx = (ha + fh - s.ph - xp.first) * row_k;
          const std::int64_t k_lane = ic_lanes ? kx : ky;
          const std::int64_t k_row = ic_lanes ? ky : kx;
          for (std::int64_t r = 0; r < nb; ++r) {
            ds[r] = row_p.data + (t * acc_rows + r0 + r) * row_p.k_cap + k_row;
            ms[r] = mt + r * lanes;
          }
          hk.axpy_rank1_multi(
              ds, lane_p.data + (t * lane_p.k_cap + k_lane) * lanes, ms,
              static_cast<int>(nb), (hb - ha) * row_k, lanes);
        }
      });
    }
    // Output transform: dW[oc][fh][j][ic] = Σ_t A^T[j][t] · m̂[fh][t].
    const std::int64_t outs = s.fh * (r_end - r_first);
    const std::int64_t t_stride = pass_rows * lanes;
    parallel_for(outs, parallel_grain(outs), [&](std::int64_t job) {
      const std::int64_t fh = job / (r_end - r_first);
      const std::int64_t r = r_first + job % (r_end - r_first);
      const float* mrow = macc + (fh * alpha * pass_rows + r - r_first) * lanes;
      ScratchArena& task_arena = ScratchArena::local();
      const ScratchArena::Scope task_scope(task_arena);
      float* tmp = ic_lanes ? nullptr
                            : task_arena.alloc_floats(
                                  static_cast<std::size_t>(lanes));
      for (std::int64_t j = 0; j < s.fw; ++j) {
        const float* at_row = &plan.at_f[static_cast<std::size_t>(j) * alpha];
        if (ic_lanes) {
          hk.out_transform(at_row, alpha, mrow, t_stride, &dw.at(r, fh, j, 0),
                           lanes);
        } else {
          // OC on the lanes: the one scatter left, dW rows being IC-major.
          hk.out_transform(at_row, alpha, mrow, t_stride, tmp, lanes);
          for (std::int64_t oc = 0; oc < lanes; ++oc) {
            dw.at(oc, fh, j, r) = tmp[oc];
          }
        }
      }
    });
  }
  return dw;
}

}  // namespace iwg::core
