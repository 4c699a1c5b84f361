// Runtime-dispatched SIMD microkernels for the host execution engine.
//
// The three host hot paths — the sliding-window input transform, the cached
// filter transform, and the inner rank-1 accumulation — all walk
// NHWC-contiguous rows, which maps 1-D Winograd tiles directly onto vector
// lanes: one lane per channel, zero gather/scatter (DESIGN §8). This header
// exposes them as a single function-pointer table selected once at startup
// (CPUID on x86, baseline ASIMD on aarch64), ggml-style: per-ISA translation
// units compiled with their own -m flags, a scalar fallback that is always
// built, and one atomic pointer the hot paths read.
//
// Numeric contract, per entry point (tests/host_kernels_test.cpp enforces
// it for every table the build carries):
//
//   transform_cols   BITWISE. Every ISA produces bit-identical FP32 to the
//                    scalar reference: per output element, ALL cols terms
//                    are multiplied and added in ascending source-row order
//                    with exactly one rounding per multiply and per add (no
//                    FMA contraction — every kernel TU is compiled with
//                    -ffp-contract=off). The sum is dense: zero matrix
//                    entries and null (zero) rows contribute ±0.0f terms
//                    rather than being skipped — a branch per (row, element,
//                    lane-block) costs more than the multiply-add it saves,
//                    and folding zeros in keeps the op sequence identical
//                    across ISAs by construction. Lane-parallelism only
//                    reorders *independent* elements, never the per-element
//                    op sequence.
//
//   axpy_rank1,      ULP-BOUNDED. Same ascending-k / ascending-t term order
//   axpy_rank1_multi,as the scalar reference, but FMA contraction is
//   out_transform    allowed: each fused multiply-add skips the multiply's
//                    intermediate rounding, so an element may differ from
//                    the scalar result by at most one rounding per term:
//                    |simd − scalar| ≤ K·ε·Σ|terms|, K the term count.
//                    out_transform is dense like transform_cols; axpy_rank1
//                    and axpy_rank1_multi take no coefficient matrix, so
//                    there is nothing to skip.
//
// axpy_rank1_multi is the engine's one accumulate: the Γ state-domain
// update, the implicit-GEMM body (one call per filter tap over an
// [IC][OC] panel plane, input pixels as row pointers, null for padding —
// the §5.5 GEMM tail, the GEMM engine and every strided layer), the
// Γ-domain weight gradient (one call per filter row over a K-chunk of
// transformed (row, tile, image) windows) and nn::Linear (one call per
// block of batch rows against W's [D][M]). In all four, each output
// element's terms run in ascending k with one rounding per multiply and
// per add on scalar and one FMA each on vector ISAs, and a row's result
// does not depend on which rows share its block.
//
// Whatever the entry's contract, one fixed table is deterministic: the same
// inputs through the same ISA give bit-identical results run to run.
//
// Selection order: IWG_HOST_ISA env (scalar | avx2 | neon | native) if set,
// else the best table the CPU supports. A build configured with
// -DIWG_HOST_ISA=scalar compiles the dispatcher to ignore SIMD tables
// entirely (the CI fallback leg). The chosen ISA is exported as a
// host.kernels.isa.<name> metric and stamped on conv2d_host spans so
// benches and the flight recorder attribute wins to the right engine.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace iwg::core {

enum class HostIsa : int {
  kScalar = 0,
  kAvx2 = 1,  ///< x86-64 AVX2 + FMA (8-lane FP32)
  kNeon = 2,  ///< aarch64 ASIMD (4-lane FP32)
};

/// The dispatch table. One immutable instance per ISA; the active pointer
/// is published once at startup (or by set_host_isa) and read with a
/// relaxed atomic load on the hot path.
struct HostKernels {
  /// dst[i·dst_stride + c] = Σ_e M[i·cols + e] · rows[e][c]
  /// for i < rows_n, c < nc, terms in ascending e (dense — zero M entries
  /// included). `rows[e]` points at nc contiguous floats (an NHWC row
  /// slice) or is nullptr, which reads as a zero row (the padding case).
  /// Pointers may have any alignment. Contract: BITWISE vs scalar.
  void (*transform_cols)(const float* m, int rows_n, int cols,
                         const float* const* rows, std::int64_t nc, float* dst,
                         std::int64_t dst_stride);

  /// m[j] += Σ_k d[k] · g[k·nj + j], terms in ascending k per element.
  /// Contract: ULP-bounded vs scalar (FMA contraction allowed).
  void (*axpy_rank1)(const float* d, const float* g, float* m,
                     std::int64_t kc, std::int64_t nj);

  /// Blocked rank-1 accumulate: for each r < rows with ds[r] != nullptr,
  ///   ms[r][j] += Σ_k ds[r][k] · g[k·nj + j]   (ascending k per element).
  /// Null ds rows are skipped and their ms row left untouched. Per row this
  /// is exactly axpy_rank1; the blocked form exists so vector ISAs can
  /// reuse one loaded ĝ vector across several accumulator rows (the rank-1
  /// update is load-bound at one g load per FMA otherwise). Contract:
  /// ULP-bounded vs scalar, same per-element term order as axpy_rank1.
  void (*axpy_rank1_multi)(const float* const* ds, const float* g,
                           float* const* ms, int rows, std::int64_t kc,
                           std::int64_t nj);

  /// y[j] = Σ_t at[t] · m[t·mstride + j] for j < n, terms in ascending t
  /// (dense — zero at entries included). Contract: ULP-bounded vs scalar.
  void (*out_transform)(const float* at, int alpha, const float* m,
                        std::int64_t mstride, float* y, std::int64_t n);

  const char* name;  ///< "scalar" | "avx2" | "neon"
  HostIsa isa;
};

/// The active table (selects on first use: IWG_HOST_ISA override, else the
/// best supported ISA; scalar when built with -DIWG_HOST_ISA=scalar).
const HostKernels& host_kernels();

/// ISA of the active table.
HostIsa host_isa();

/// Table for a specific ISA, or nullptr when this build/CPU lacks it.
/// (Scalar is never null.) Used by the parity tests and per-kernel benches.
const HostKernels* host_kernels_for(HostIsa isa);

/// Every ISA host_kernels_for() returns non-null for, scalar first.
std::vector<HostIsa> host_isa_available();

/// Override the active table (tests, benches, the IWG_HOST_ISA env path).
/// Returns false — and leaves the selection unchanged — when the requested
/// ISA is unavailable. Takes effect for subsequent convolutions; callers
/// are responsible for not racing it against in-flight work.
bool set_host_isa(HostIsa isa);

/// "scalar" | "avx2" | "neon".
const char* host_isa_name(HostIsa isa);

/// Parses an explicit ISA name ("scalar", "avx2", "neon"); "native" and
/// unknown strings return nullopt (the caller falls back to autodetect).
std::optional<HostIsa> parse_host_isa(std::string_view name);

namespace detail {
// Per-ISA factories (one translation unit each). SIMD factories return
// nullptr when the build targets another architecture or the CPU lacks the
// feature at runtime.
const HostKernels& host_kernels_scalar();
const HostKernels* host_kernels_avx2();
const HostKernels* host_kernels_neon();
}  // namespace detail

}  // namespace iwg::core
