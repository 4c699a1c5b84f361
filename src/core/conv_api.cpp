#include "core/conv_api.hpp"

#include <optional>

#include "common/trace.hpp"
#include "core/gamma_host.hpp"
#include "tensor/layout.hpp"

namespace iwg::core {

namespace {

/// The ĝ-reuse handle the host engine derives from caller options.
FilterCacheRef cache_ref(const ConvOptions& opts) {
  FilterCacheRef fc;
  fc.cache = opts.filter_cache;
  fc.version = opts.weights_version;
  return fc;
}

/// Common span args for one boundary-plan segment. Templated over the span
/// type so the call sites also compile against trace::NullSpan under
/// -DIWG_TRACE_DISABLE.
template <typename SpanT>
void tag_segment(SpanT& span, const Segment& seg) {
  if (!span.active()) return;
  span.arg("ow_start", seg.ow_start).arg("ow_len", seg.ow_len);
  if (!seg.is_gemm) {
    span.arg("alpha", seg.cfg.alpha)
        .arg("n", seg.cfg.n)
        .arg("r", seg.cfg.r)
        .arg("variant", variant_name(seg.cfg.variant));
  }
}

/// Export one kernel launch's measured hardware counters into the flight
/// recorder: per-kernel span args (readable next to the slice in Perfetto)
/// plus process-level metrics, so the paper's §5.2 bank-conflict and NHWC
/// coalescing claims are continuously measured numbers rather than one-off
/// bench output.
template <typename SpanT>
void export_sim_stats(SpanT& span, const sim::LaunchStats& st) {
  span.arg("sim.blocks", st.blocks)
      .arg("sim.fma", st.fma)
      .arg("sim.gld_sectors", st.gld_sectors)
      .arg("sim.gst_sectors", st.gst_sectors)
      .arg("sim.gld_efficiency", st.gld_efficiency())
      .arg("sim.smem_ld_passes", st.smem_ld_passes)
      .arg("sim.smem_ld_ideal", st.smem_ld_ideal)
      .arg("sim.smem_st_passes", st.smem_st_passes)
      .arg("sim.smem_st_ideal", st.smem_st_ideal)
      .arg("sim.smem_ld_conflict_factor", st.smem_ld_conflict_factor())
      .arg("sim.smem_st_conflict_factor", st.smem_st_conflict_factor())
      .arg("sim.barriers", st.barriers);
  auto& reg = trace::MetricsRegistry::global();
  static trace::Counter& launches = reg.counter("sim.counted_launches");
  static trace::Histogram& ld_cf =
      reg.histogram("sim.smem_ld_conflict_factor");
  static trace::Histogram& st_cf =
      reg.histogram("sim.smem_st_conflict_factor");
  static trace::Histogram& gld_eff = reg.histogram("sim.gld_efficiency");
  launches.add();
  ld_cf.record(st.smem_ld_conflict_factor());
  st_cf.record(st.smem_st_conflict_factor());
  gld_eff.record(st.gld_efficiency());
}

}  // namespace

std::vector<Segment> plan_for(const ConvShape& s, const ConvOptions& opts) {
  s.validate();
  if (!opts.use_winograd || s.fw < 2 || s.fw > 9) return gemm_plan(s.ow());
  const bool c64 = opts.allow_c64 && s.ic % 64 == 0 && s.oc % 64 == 0;
  return plan_boundary(s.ow(), static_cast<int>(s.fw), opts.allow_ruse, c64);
}

std::vector<Segment> gemm_plan(std::int64_t ow) {
  Segment seg;
  seg.is_gemm = true;
  seg.ow_start = 0;
  seg.ow_len = ow;
  return {seg};
}

std::vector<Segment> plan_single(const ConvShape& s,
                                 const GammaConfig& primary) {
  s.validate();
  IWG_CHECK(primary.r == s.fw);
  const std::int64_t gran =
      static_cast<std::int64_t>(primary.n) *
      (primary.variant == Variant::kRuse ? 2 : 1);
  std::vector<Segment> plan;
  std::int64_t start = 0;
  std::int64_t remaining = s.ow();
  const std::int64_t len = remaining - remaining % gran;
  if (len > 0) {
    plan.push_back(Segment{false, primary, start, len});
    start += len;
    remaining -= len;
  }
  // A ruse primary covers tile *pairs*; its base version mops up a single
  // leftover tile before the GEMM tail (the §5.5 chaining discipline).
  if (primary.variant == Variant::kRuse && remaining >= primary.n) {
    const GammaConfig base =
        GammaConfig::make(primary.alpha, primary.n, primary.r);
    const std::int64_t blen = remaining - remaining % primary.n;
    plan.push_back(Segment{false, base, start, blen});
    start += blen;
    remaining -= blen;
  }
  if (remaining > 0) {
    Segment seg;
    seg.is_gemm = true;
    seg.ow_start = start;
    seg.ow_len = remaining;
    plan.push_back(seg);
  }
  return plan;
}

TensorF conv2d(const TensorF& x, const TensorF& w, const ConvShape& s,
               const ConvOptions& opts) {
  std::optional<trace::Suppress> mute;
  if (!opts.trace) mute.emplace();
  return conv2d_gamma_host(x, w, s, plan_for(s, opts), cache_ref(opts));
}

TensorF conv2d(const TensorF& x, const TensorF& w, const ConvShape& s,
               const std::vector<Segment>& plan, const ConvOptions& opts) {
  std::optional<trace::Suppress> mute;
  if (!opts.trace) mute.emplace();
  return conv2d_gamma_host(x, w, s, plan, cache_ref(opts));
}

TensorF conv2d_strided(const TensorF& x, const TensorF& w, const ConvShape& s,
                       std::int64_t stride, const ConvOptions& opts) {
  if (stride == 1) return conv2d(x, w, s, opts);
  std::optional<trace::Suppress> mute;
  if (!opts.trace) mute.emplace();
  s.validate();
  return conv2d_gamma_host(x, w, s, gemm_plan(strided_extent(s.ow(), stride)),
                           cache_ref(opts), stride);
}

TensorF conv2d_nchw(const TensorF& x_nchw, const TensorF& w,
                    const ConvShape& s, const ConvOptions& opts) {
  const TensorF x = nchw_to_nhwc(x_nchw);
  return nhwc_to_nchw(conv2d(x, w, s, opts));
}

TensorF deconv2d(const TensorF& dy, const TensorF& w, const ConvShape& s,
                 const ConvOptions& opts) {
  std::optional<trace::Suppress> mute;
  if (!opts.trace) mute.emplace();
  // Plan over the *input* width (the deconv output) with the same priorities.
  ConvShape b = GammaKernel::make_backward_shape(s);
  return deconv2d_gamma_host(dy, w, s, plan_for(b, opts), cache_ref(opts));
}

TensorF deconv2d_nchw(const TensorF& dy_nchw, const TensorF& w,
                      const ConvShape& s, const ConvOptions& opts) {
  const TensorF dy = nchw_to_nhwc(dy_nchw);
  return nhwc_to_nchw(deconv2d(dy, w, s, opts));
}

namespace {

TensorF run_plan_sim(const TensorF& x, const TensorF& w_orig,
                     const ConvShape& s, const std::vector<Segment>& plan) {
  // Forward kernels read the pre-transposed FH,FW,IC,OC filter (§5.1); the
  // GEMM tail reads the precomputed k-major matrix.
  const TensorF wt = transpose_filter_to_fhwio(w_orig);

  TensorF y({s.n, s.oh(), s.ow(), s.oc});
  sim::GmemBuf xbuf(x.data(), x.size(), /*clamp_zero=*/true);
  sim::GmemBuf wbuf(wt.data(), wt.size());
  sim::GmemBuf ybuf(y.data(), y.size());

  TensorF wgemm;
  std::int64_t covered = 0;
  for (const Segment& seg : plan) {
    IWG_CHECK_MSG(seg.ow_start == covered, "plan has gaps");
    covered += seg.ow_len;
    IWG_TRACE_SPAN(span, seg.is_gemm ? "gemm_sim" : "gamma_sim", "sim");
    tag_segment(span, seg);
    // When the flight recorder is on, run the launch with hardware counters
    // and attach the measurements to this kernel's span.
    const bool counting = span.active();
    if (seg.is_gemm) {
      if (wgemm.empty())
        wgemm = precompute_gemm_filter(w_orig, GemmLayout::kNHWC);
      sim::GmemBuf wg(wgemm.data(), wgemm.size());
      ImplicitGemmKernel k(s, GemmLayout::kNHWC, xbuf, wg, ybuf, seg.ow_start,
                           seg.ow_len);
      const sim::LaunchStats st = sim::launch_all(k, k.grid(), counting);
      if (counting) export_sim_stats(span, st);
    } else {
      GammaKernel k(seg.cfg, s, ConvDir::kForward, xbuf, wbuf, ybuf,
                    seg.ow_start, seg.ow_len);
      const sim::LaunchStats st = sim::launch_all(k, k.grid(), counting);
      if (counting) export_sim_stats(span, st);
    }
  }
  IWG_CHECK_MSG(covered == s.ow(), "plan does not cover OW");
  return y;
}

}  // namespace

TensorF conv2d_sim(const TensorF& x, const TensorF& w, const ConvShape& s,
                   const std::vector<Segment>& plan) {
  s.validate();
  IWG_CHECK(x.dim(0) == s.n && x.dim(1) == s.ih && x.dim(2) == s.iw &&
            x.dim(3) == s.ic);
  IWG_CHECK(w.dim(0) == s.oc && w.dim(1) == s.fh && w.dim(2) == s.fw &&
            w.dim(3) == s.ic);
  return run_plan_sim(x, w, s, plan);
}

TensorF deconv2d_sim(const TensorF& dy, const TensorF& w, const ConvShape& s,
                     const std::vector<Segment>& plan) {
  s.validate();
  const ConvShape b = GammaKernel::make_backward_shape(s);
  IWG_CHECK(dy.dim(0) == b.n && dy.dim(1) == b.ih && dy.dim(2) == b.iw &&
            dy.dim(3) == b.ic);

  // Γ segments read the original filter (rotation fused); the GEMM tail, if
  // any, needs the explicit equivalent-forward filter. run_plan_sim derives
  // the tail filter from the tensor we hand it, so pass the rotated filter
  // and use kBackwardData only for the Γ kernels by splitting the plan here.
  TensorF y({b.n, b.oh(), b.ow(), b.oc});
  sim::GmemBuf xbuf(dy.data(), dy.size(), /*clamp_zero=*/true);
  sim::GmemBuf wbuf(w.data(), w.size());
  sim::GmemBuf ybuf(y.data(), y.size());

  TensorF wrot;  // equivalent forward filter for the GEMM tail
  TensorF wgemm;
  std::int64_t covered = 0;
  for (const Segment& seg : plan) {
    IWG_CHECK_MSG(seg.ow_start == covered, "plan has gaps");
    covered += seg.ow_len;
    IWG_TRACE_SPAN(span, seg.is_gemm ? "gemm_sim" : "gamma_sim", "sim");
    tag_segment(span, seg);
    const bool counting = span.active();
    if (seg.is_gemm) {
      if (wgemm.empty()) {
        wrot = deconv_filter(w);
        wgemm = precompute_gemm_filter(wrot, GemmLayout::kNHWC);
      }
      sim::GmemBuf wg(wgemm.data(), wgemm.size());
      ImplicitGemmKernel k(b, GemmLayout::kNHWC, xbuf, wg, ybuf, seg.ow_start,
                           seg.ow_len);
      const sim::LaunchStats st = sim::launch_all(k, k.grid(), counting);
      if (counting) export_sim_stats(span, st);
    } else {
      GammaKernel k(seg.cfg, b, ConvDir::kBackwardData, xbuf, wbuf, ybuf,
                    seg.ow_start, seg.ow_len);
      const sim::LaunchStats st = sim::launch_all(k, k.grid(), counting);
      if (counting) export_sim_stats(span, st);
    }
  }
  IWG_CHECK_MSG(covered == b.ow(), "plan does not cover the deconv output");
  return y;
}

ConvPerfReport profile_conv2d(const ConvShape& s, const sim::DeviceProfile& dev,
                              const std::vector<Segment>& plan,
                              int max_samples) {
  s.validate();
  ConvPerfReport rep;
  const double xbytes = 4.0 * s.n * s.ih * s.iw * s.ic;
  const double wbytes = 4.0 * s.oc * s.fh * s.fw * s.ic;
  const double ybytes = 4.0 * s.n * s.oh() * s.ow() * s.oc;
  const double footprint = xbytes + wbytes + ybytes;
  const int launches = static_cast<int>(plan.size());

  // Address-only buffers: profiling never allocates paper-scale tensors.
  sim::GmemBuf xbuf(static_cast<float*>(nullptr),
                    s.n * s.ih * s.iw * s.ic, true);
  sim::GmemBuf wbuf(static_cast<float*>(nullptr),
                    s.oc * s.fh * s.fw * s.ic);
  sim::GmemBuf ybuf(static_cast<float*>(nullptr),
                    s.n * s.oh() * s.ow() * s.oc);
  sim::GmemBuf wgemm(static_cast<float*>(nullptr),
                     s.fh * s.fw * s.ic * s.oc);

  for (const Segment& seg : plan) {
    const double frac =
        static_cast<double>(seg.ow_len) / static_cast<double>(s.ow());
    const double seg_flops = s.flops() * frac;
    IWG_TRACE_SPAN(span, seg.is_gemm ? "profile.gemm" : "profile.gamma",
                   "profile");
    tag_segment(span, seg);
    sim::PerfEstimate est;
    sim::LaunchStats seg_stats;
    if (seg.is_gemm) {
      ImplicitGemmKernel k(s, GemmLayout::kNHWC, xbuf, wgemm, ybuf,
                           seg.ow_start, seg.ow_len);
      est = profile_gemm(k, dev, seg_flops, footprint * frac, max_samples, 1,
                         &seg_stats);
    } else {
      GammaKernel k(seg.cfg, s, ConvDir::kForward, xbuf, wbuf, ybuf,
                    seg.ow_start, seg.ow_len);
      est = profile_gamma(k, dev, seg_flops, footprint * frac, max_samples, 1,
                          &seg_stats);
    }
    rep.stats.merge(seg_stats);
    export_sim_stats(span, seg_stats);
    // The paper's roofline attribution (§6): per-resource analytic split.
    span.arg("time_s", est.time_s)
        .arg("gflops", est.gflops)
        .arg("t_compute", est.t_compute)
        .arg("t_dram", est.t_dram)
        .arg("t_l2", est.t_l2)
        .arg("t_smem", est.t_smem)
        .arg("dram_bytes", est.dram_bytes)
        .arg("bound", est.bound);
    rep.segments.push_back(est);
    rep.time_s += est.time_s;
  }
  rep.time_s += dev.launch_overhead_s * (launches - 1);
  rep.gflops = s.flops() / rep.time_s / 1e9;
  // Filter transposition (§5.1): one read + one write of W over DRAM.
  rep.transpose_s = 2.0 * wbytes / (dev.dram_bw_gbps * 1e9) +
                    dev.launch_overhead_s;
  return rep;
}

ConvPerfReport profile_gemm_conv2d(const ConvShape& s,
                                   const sim::DeviceProfile& dev,
                                   GemmLayout layout, int max_samples) {
  s.validate();
  ConvPerfReport rep;
  const double xbytes = 4.0 * s.n * s.ih * s.iw * s.ic;
  const double wbytes = 4.0 * s.oc * s.fh * s.fw * s.ic;
  const double ybytes = 4.0 * s.n * s.oh() * s.ow() * s.oc;

  sim::GmemBuf xbuf(static_cast<float*>(nullptr),
                    s.n * s.ih * s.iw * s.ic, true);
  sim::GmemBuf wbuf(static_cast<float*>(nullptr),
                    s.fh * s.fw * s.ic * s.oc);
  sim::GmemBuf ybuf(static_cast<float*>(nullptr),
                    s.n * s.oh() * s.ow() * s.oc);
  ImplicitGemmKernel k(s, layout, xbuf, wbuf, ybuf, 0, s.ow());
  const sim::PerfEstimate est =
      profile_gemm(k, dev, s.flops(), xbytes + wbytes + ybytes, max_samples, 1,
                   &rep.stats);
  rep.segments.push_back(est);
  rep.time_s = est.time_s;
  rep.gflops = est.gflops;
  rep.transpose_s = 0.0;  // precomp filter is part of cuDNN's setup as well
  return rep;
}

}  // namespace iwg::core
