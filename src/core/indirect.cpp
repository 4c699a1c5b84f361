#include "core/indirect.hpp"

#include <algorithm>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/conv_api.hpp"
#include "core/host_kernels.hpp"
#include "winograd/plan.hpp"

namespace iwg::core {

IndirectionTable build_indirection_table(std::span<const ImageView> images,
                                         const ConvShape& geom,
                                         ScratchArena& arena,
                                         std::int64_t stride) {
  IWG_CHECK(stride >= 1);
  IndirectionTable table;
  table.images.reserve(images.size());
  table.image_class.reserve(images.size());
  for (const ImageView& v : images) {
    IWG_CHECK_MSG(v.x != nullptr && v.y != nullptr,
                  "indirect dispatch needs input and output storage");
    int cls = -1;
    for (std::size_t c = 0; c < table.classes.size(); ++c) {
      if (table.classes[c].ih == v.ih && table.classes[c].iw == v.iw) {
        cls = static_cast<int>(c);
        break;
      }
    }
    if (cls < 0) {
      ConvShape s = geom;
      s.n = 1;
      s.ih = v.ih;
      s.iw = v.iw;
      s.validate();
      cls = static_cast<int>(table.classes.size());
      table.classes.push_back(s);
    }
    const ConvShape& s = table.classes[static_cast<std::size_t>(cls)];
    const std::int64_t table_len = s.ih + 2 * s.ph;
    auto** rows = static_cast<const float**>(
        arena.alloc(static_cast<std::size_t>(table_len) * sizeof(float*)));
    detail::fill_row_table(rows, v.x, s.ih, s.iw, s.ic, s.ph);
    detail::ImageTask t;
    t.rows = rows;
    t.y = v.y;
    t.ih = s.ih;
    t.iw = s.iw;
    t.oh = strided_extent(s.oh(), stride);
    t.ow = strided_extent(s.ow(), stride);
    table.images.push_back(t);
    table.image_class.push_back(cls);
  }
  return table;
}

void conv2d_gamma_host_indirect(std::span<const ImageView> images,
                                const TensorF& w, const ConvShape& geom,
                                const IndirectOptions& opts,
                                std::int64_t stride) {
  if (images.empty()) return;
  IWG_CHECK(w.rank() == 4 && w.dim(0) == geom.oc && w.dim(1) == geom.fh &&
            w.dim(2) == geom.fw && w.dim(3) == geom.ic);

  // The table (row-pointer arrays included) lives in this scope; task
  // bodies open nested scopes on their own threads' arenas.
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  const IndirectionTable table =
      build_indirection_table(images, geom, arena, stride);

  IWG_TRACE_SPAN(span, "conv2d_host_indirect", "host");
  if (span.active()) {
    span.arg("images", static_cast<std::int64_t>(images.size()))
        .arg("shape_classes", static_cast<std::int64_t>(table.classes.size()))
        .arg("isa", host_kernels().name);
  }
  static trace::Counter& dispatches =
      trace::MetricsRegistry::global().counter("conv.indirect.dispatches");
  static trace::Counter& image_count =
      trace::MetricsRegistry::global().counter("conv.indirect.images");
  static trace::Counter& gamma_segs =
      trace::MetricsRegistry::global().counter("conv.segments_gamma");
  static trace::Counter& gemm_segs =
      trace::MetricsRegistry::global().counter("conv.segments_gemm");
  dispatches.add();
  image_count.add(static_cast<std::int64_t>(images.size()));

  // One boundary plan per shape class — plan_for depends only on OW, FW and
  // the flags, so this is the plan the dense path would pick for a batch-1
  // dispatch of the same image (the bitwise-parity anchor). A strided
  // dispatch is one GEMM segment over the strided width, as in
  // conv2d_strided.
  ConvOptions copts;
  copts.use_winograd = opts.use_winograd;
  copts.allow_ruse = opts.allow_ruse;
  copts.allow_c64 = opts.allow_c64;
  std::vector<std::vector<Segment>> plans;
  plans.reserve(table.classes.size());
  for (const ConvShape& s : table.classes) {
    plans.push_back(stride == 1 ? plan_for(s, copts)
                                : gemm_plan(strided_extent(s.ow(), stride)));
    // Callers may hand in outputs that are not zero-filled (Conv2D's
    // ragged path), so every column must be written, as run_plan checks.
    std::int64_t covered = 0;
    for (const Segment& seg : plans.back()) {
      IWG_CHECK_MSG(seg.ow_start == covered, "boundary plan has gaps");
      covered += seg.ow_len;
    }
    IWG_CHECK_MSG(covered == strided_extent(s.ow(), stride),
                  "boundary plan does not cover OW");
  }

  detail::TransformMemo transforms(w, opts.fc);

  // Flatten every (image, segment) into a run of independent unit tasks —
  // Γ tile columns or GEMM output rows — and dispatch them under ONE
  // parallel_for: this is the "one Γ dispatch over mixed-shape traffic".
  struct Chunk {
    const detail::ImageTask* img;
    const ConvShape* s;
    const Segment* seg;
    const WinogradPlan* plan;  // nullptr for GEMM segments
    const float* weights;      // ĝ, or the GEMM panel
    std::int64_t begin;        // global unit offset of this chunk
  };
  std::vector<Chunk> chunks;
  std::int64_t total = 0;
  for (std::size_t i = 0; i < table.images.size(); ++i) {
    const int cls = table.image_class[i];
    const ConvShape& s = table.classes[static_cast<std::size_t>(cls)];
    for (const Segment& seg : plans[static_cast<std::size_t>(cls)]) {
      Chunk c;
      c.img = &table.images[i];
      c.s = &s;
      c.seg = &seg;
      c.begin = total;
      if (seg.is_gemm) {
        gemm_segs.add();
        c.plan = nullptr;
        c.weights = transforms.panel();
        total += table.images[i].oh;
      } else {
        gamma_segs.add();
        c.plan = &get_plan(seg.cfg.n, seg.cfg.r);
        c.weights = transforms.ghat(s, seg.cfg);
        total += seg.ow_len / seg.cfg.n;
      }
      chunks.push_back(c);
    }
  }

  const HostKernels& hk = host_kernels();
  parallel_for(total, parallel_grain(total), [&](std::int64_t u) {
    // Locate the chunk containing unit u (last chunk with begin <= u).
    const auto it = std::upper_bound(
        chunks.begin(), chunks.end(), u,
        [](std::int64_t v, const Chunk& c) { return v < c.begin; });
    const Chunk& c = *(it - 1);
    const std::int64_t local = u - c.begin;
    if (c.seg->is_gemm) {
      detail::gemm_row(*c.img, *c.s, c.weights, hk, stride, local,
                       c.seg->ow_start, c.seg->ow_len);
    } else {
      detail::gamma_tile_column(*c.img, *c.s, c.seg->cfg, *c.plan, c.weights,
                                hk, c.seg->ow_start, local);
    }
  });
}

}  // namespace iwg::core
