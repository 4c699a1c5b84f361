// Dense row-major tensors (rank ≤ 4) used throughout the library.
//
// Convolution tensors follow the paper's conventions (Table 1):
//   ifms    X : N × IH × IW × IC           (NHWC)
//   filters W : OC × FH × FW × IC
//   ofms    Y : N × OH × OW × OC           (NHWC)
// NCHW variants are produced by the layout converters in layout.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace iwg {

/// std::allocator whose value-less construct() default-initializes, so a
/// vector sized or resized through it leaves arithmetic elements unset
/// instead of zeroing them. Under AddressSanitizer (`__SANITIZE_ADDRESS__`)
/// floating-point elements are set to NaN instead, so a buffer read before
/// its producer wrote it shows up as NaN in the ASan build's bitwise tests.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
#if defined(__SANITIZE_ADDRESS__)
    if constexpr (std::is_floating_point_v<U>) {
      *p = std::numeric_limits<U>::quiet_NaN();
    }
#endif
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Contiguous storage that does not zero what it allocates: the elements
/// of Tensor and of the host engine's cached filter transforms.
template <class T>
using Buffer = std::vector<T, DefaultInitAllocator<T>>;

/// Owning dense tensor of element type T (float for compute, double for the
/// FP64 reference path). Row-major; rank between 1 and 5 (rank 5 serves the
/// §4.2 N-D extension's N,D,H,W,C volumes).
template <typename T>
class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::initializer_list<std::int64_t> dims) {
    reset(std::vector<std::int64_t>(dims));
  }
  explicit Tensor(const std::vector<std::int64_t>& dims) { reset(dims); }

  // Buffer's own copy constructor copies element by element (libstdc++
  // keeps its memmove path for std::allocator); std::copy is a memmove.
  Tensor(const Tensor& o)
      : rank_(o.rank_), dims_(o.dims_), strides_(o.strides_),
        data_(o.data_.size()) {
    std::copy(o.data_.begin(), o.data_.end(), data_.begin());
  }
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor& operator=(Tensor&&) noexcept = default;

  /// A tensor of `dims` whose elements are left unset (NaN under
  /// AddressSanitizer, see DefaultInitAllocator): only for a buffer that
  /// one producer overwrites in full before anything reads it.
  static Tensor uninitialized(const std::vector<std::int64_t>& dims) {
    Tensor t;
    t.data_.resize(static_cast<std::size_t>(t.set_shape(dims)));
    return t;
  }

  /// Reshape to `dims` and zero every element.
  void reset(const std::vector<std::int64_t>& dims) {
    data_.assign(static_cast<std::size_t>(set_shape(dims)), T{});
  }

  /// The same elements, row-major, under `dims` of equal total size: no
  /// copy, no fill.
  void reshape(const std::vector<std::int64_t>& dims) {
    IWG_CHECK_MSG(element_count(dims) == size(),
                  "reshape must keep the element count");
    set_shape(dims);
  }

  int rank() const { return rank_; }
  std::int64_t dim(int i) const { return dims_[i]; }
  std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::span<T> span() { return {data_.data(), data_.size()}; }
  std::span<const T> span() const { return {data_.data(), data_.size()}; }

  T& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  const T& operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  /// 4-D accessors (unused trailing indices must be 0 for lower ranks).
  T& at(std::int64_t a, std::int64_t b, std::int64_t c, std::int64_t d) {
    return data_[static_cast<std::size_t>(offset(a, b, c, d))];
  }
  const T& at(std::int64_t a, std::int64_t b, std::int64_t c,
              std::int64_t d) const {
    return data_[static_cast<std::size_t>(offset(a, b, c, d))];
  }

  /// 5-D accessors (rank-5 tensors only).
  T& at5(std::int64_t a, std::int64_t b, std::int64_t c, std::int64_t d,
         std::int64_t e) {
    return data_[static_cast<std::size_t>(offset5(a, b, c, d, e))];
  }
  const T& at5(std::int64_t a, std::int64_t b, std::int64_t c, std::int64_t d,
               std::int64_t e) const {
    return data_[static_cast<std::size_t>(offset5(a, b, c, d, e))];
  }

  std::int64_t offset(std::int64_t a, std::int64_t b, std::int64_t c,
                      std::int64_t d) const {
    return a * strides_[0] + b * strides_[1] + c * strides_[2] + d * strides_[3];
  }
  std::int64_t offset5(std::int64_t a, std::int64_t b, std::int64_t c,
                       std::int64_t d, std::int64_t e) const {
    return a * strides_[0] + b * strides_[1] + c * strides_[2] +
           d * strides_[3] + e * strides_[4];
  }

  bool same_shape(const Tensor& o) const {
    if (rank_ != o.rank_) return false;
    for (int i = 0; i < rank_; ++i)
      if (dims_[i] != o.dims_[i]) return false;
    return true;
  }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  void fill_uniform(Rng& rng, T lo, T hi) {
    for (auto& v : data_) {
      if constexpr (std::is_same_v<T, float>) {
        v = rng.uniform(lo, hi);
      } else {
        v = static_cast<T>(rng.uniform_double(static_cast<double>(lo),
                                              static_cast<double>(hi)));
      }
    }
  }

  /// Element-wise copy converting precision (e.g. float → double reference).
  template <typename U>
  Tensor<U> cast() const {
    std::vector<std::int64_t> dims(dims_.begin(), dims_.begin() + rank_);
    Tensor<U> out(dims);
    for (std::int64_t i = 0; i < size(); ++i)
      out[i] = static_cast<U>(data_[static_cast<std::size_t>(i)]);
    return out;
  }

 private:
  static std::int64_t element_count(const std::vector<std::int64_t>& dims) {
    IWG_CHECK_MSG(!dims.empty() && dims.size() <= 5, "tensor rank must be 1-5");
    std::int64_t total = 1;
    for (const std::int64_t d : dims) {
      IWG_CHECK_MSG(d > 0, "tensor dims must be positive");
      total *= d;
    }
    return total;
  }

  /// Sets rank, dims and strides; returns the element count.
  std::int64_t set_shape(const std::vector<std::int64_t>& dims) {
    const std::int64_t total = element_count(dims);
    rank_ = static_cast<int>(dims.size());
    for (int i = 0; i < 5; ++i) dims_[i] = i < rank_ ? dims[i] : 1;
    strides_[rank_ - 1] = 1;
    for (int i = rank_ - 2; i >= 0; --i) strides_[i] = strides_[i + 1] * dims_[i + 1];
    for (int i = rank_; i < 5; ++i) strides_[i] = 1;
    return total;
  }

  int rank_ = 0;
  std::array<std::int64_t, 5> dims_{1, 1, 1, 1, 1};
  std::array<std::int64_t, 5> strides_{1, 1, 1, 1, 1};
  Buffer<T> data_;
};

using TensorF = Tensor<float>;
using TensorD = Tensor<double>;

}  // namespace iwg
