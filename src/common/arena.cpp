#include "common/arena.hpp"

#include <algorithm>
#include <atomic>

namespace iwg {

namespace {

std::atomic<std::size_t> g_max_high_water{0};

// trim_all state: a bumped epoch plus the keep target it carries. Arenas
// compare the epoch when their outermost Scope opens and trim themselves on
// their own thread, which is the only thread allowed to touch them.
std::atomic<std::uint64_t> g_trim_epoch{0};
std::atomic<std::size_t> g_trim_keep{0};

void raise_global_high_water(std::size_t hw) {
  std::size_t cur = g_max_high_water.load(std::memory_order_relaxed);
  while (hw > cur && !g_max_high_water.compare_exchange_weak(
                         cur, hw, std::memory_order_relaxed)) {
  }
}

}  // namespace

ScratchArena& ScratchArena::local() {
  static thread_local ScratchArena arena;
  return arena;
}

std::size_t ScratchArena::max_high_water() {
  return g_max_high_water.load(std::memory_order_relaxed);
}

std::size_t ScratchArena::capacity() const {
  return blocks_.empty() ? 0 : prefix_.back() + blocks_.back().cap;
}

void ScratchArena::grow(std::size_t min_bytes) {
  std::size_t cap = blocks_.empty() ? kFirstBlockBytes : blocks_.back().cap * 2;
  cap = std::max(cap, min_bytes);
  prefix_.push_back(blocks_.empty() ? 0 : prefix_.back() + blocks_.back().cap);
  // operator new[] only guarantees 16-byte alignment; over-allocate and
  // round the base up so every offset (a kAlign multiple) is truly aligned.
  Block b;
  b.data = std::make_unique_for_overwrite<std::byte[]>(cap + kAlign - 1);
  const auto raw = reinterpret_cast<std::uintptr_t>(b.data.get());
  b.base = b.data.get() + ((kAlign - raw % kAlign) % kAlign);
  b.cap = cap;
  blocks_.push_back(std::move(b));
}

void* ScratchArena::alloc(std::size_t bytes) {
  bytes = std::max<std::size_t>((bytes + kAlign - 1) & ~(kAlign - 1), kAlign);
  // Skip forward past blocks too small for this request; scope exit
  // restores the exact (block, offset) cursor, so skipped tails are only
  // fragmentation until the next outermost scope consolidates the chain.
  while (cur_block_ < blocks_.size() &&
         cur_off_ + bytes > blocks_[cur_block_].cap) {
    ++cur_block_;
    cur_off_ = 0;
  }
  if (cur_block_ == blocks_.size()) grow(bytes);
  std::byte* p = blocks_[cur_block_].base + cur_off_;
  cur_off_ += bytes;
  live_ += bytes;
  peak_ = std::max(peak_, live_);
  if (live_ > high_water_) {
    high_water_ = live_;
    raise_global_high_water(live_);
  }
  return p;
}

void ScratchArena::enter_scope() {
  if (scope_depth_ == 0) {
    const std::uint64_t e = g_trim_epoch.load(std::memory_order_relaxed);
    if (e != trim_epoch_seen_) {
      trim_epoch_seen_ = e;
      trim(g_trim_keep.load(std::memory_order_acquire));
    }
    if (blocks_.size() > 1) consolidate();
  }
  ++scope_depth_;
}

void ScratchArena::exit_scope(std::size_t block, std::size_t off,
                              std::size_t live) {
  cur_block_ = block;
  cur_off_ = off;
  live_ = live;
  --scope_depth_;
}

// One block for the peak the chain served, rounded up to the first block's
// size: a chain forms only when that peak outgrew the block before it, so
// each consolidation is at least as large as the last one since a trim.
void ScratchArena::consolidate() {
  if (live_ != 0) return;  // an allocation made outside any scope is live
  const std::size_t cap =
      (peak_ + kFirstBlockBytes - 1) / kFirstBlockBytes * kFirstBlockBytes;
  blocks_.clear();
  prefix_.clear();
  cur_block_ = 0;
  cur_off_ = 0;
  peak_ = 0;
  grow(cap);
}

void ScratchArena::trim(std::size_t keep_bytes) {
  if (scope_depth_ != 0) return;  // live pointers may reach trailing blocks
  while (!blocks_.empty() && capacity() > keep_bytes) {
    const std::size_t last = blocks_.size() - 1;
    // Only blocks at or past the cursor are unused; the cursor's own block
    // is droppable only when nothing has been handed out from it.
    if (last < cur_block_ || (last == cur_block_ && cur_off_ > 0)) break;
    blocks_.pop_back();
    prefix_.pop_back();
  }
  if (cur_block_ > blocks_.size()) {
    cur_block_ = blocks_.size();
    cur_off_ = 0;
  }
  peak_ = live_;
}

void ScratchArena::trim_all(std::size_t keep_bytes) {
  g_trim_keep.store(keep_bytes, std::memory_order_release);
  g_trim_epoch.fetch_add(1, std::memory_order_release);
}

}  // namespace iwg
