// Page-aligned byte buffers and a slab-backed buffer pool.
//
// DeepNVMe-style engines require page-aligned, pinned host buffers for
// O_DIRECT/libaio transfers. We reproduce the allocation discipline —
// explicit pool-based allocation with a hard capacity, acquire/release
// semantics, no hidden growth — which is what gives the engine its
// "bounded host memory" behaviour (at most K subgroups resident, paper
// §3.1/Fig. 5).
//
// BufferPool fronts a single page-aligned (optionally mlock-pinned) slab
// suballocated by OffsetAllocator: acquire(bytes) hands out a span carved
// from the slab in O(1) with zero heap traffic, blocks under backpressure
// when the slab is full, and falls back to a counted heap allocation only
// for requests larger than the slab itself. The stats() counters are the
// ground truth behind the repo's alloc-churn metric: a steady-state
// iteration must show heap_fallbacks == 0.
#pragma once

#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "util/common.hpp"
#include "util/mutex.hpp"
#include "util/offset_allocator.hpp"

namespace mlpo {

/// Movable page-aligned buffer of raw bytes.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t size, std::size_t alignment = 4096);
  ~AlignedBuffer();

  /// A zeroed, page-aligned buffer of exactly `size` bytes whose pages are
  /// faulted in up front. On Linux it is one anonymous mapping that the
  /// kernel populates in a single call instead of one fault per first
  /// touch. A buffer of 16 MiB or more is mapped 2 MiB-aligned and advised
  /// for transparent huge pages first, which populated a 59 MB slab in
  /// ~10 ms instead of ~21 ms on a 4-core Xeon VM; smaller buffers stay on
  /// 4 KiB pages, so many small ones never each pin a whole huge page.
  /// Elsewhere: a plain zeroed allocation.
  static AlignedBuffer populated(std::size_t size);

  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  u8* data() { return data_; }
  const u8* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<u8> bytes() { return {data_, size_}; }
  std::span<const u8> bytes() const { return {data_, size_}; }

  /// View the buffer as an array of T (size must divide evenly).
  template <typename T>
  std::span<T> as() {
    return {reinterpret_cast<T*>(data_), size_ / sizeof(T)};
  }
  template <typename T>
  std::span<const T> as() const {
    return {reinterpret_cast<const T*>(data_), size_ / sizeof(T)};
  }

 private:
  u8* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;  ///< from mmap (populated()), not aligned_alloc
};

/// Slab-backed pool of variable-size aligned buffers. acquire() blocks when
/// the slab is exhausted — this backpressure is what bounds the number of
/// in-flight subgroups exactly like a pinned-buffer budget does on real
/// hardware.
class BufferPool {
 public:
  struct Options {
    /// Total slab capacity; rounded up to a whole number of granules.
    std::size_t slab_bytes = 0;
    /// Allocation quantum and guaranteed alignment of every lease (the
    /// O_DIRECT contract wants 4096 for both).
    std::size_t granule = 4096;
    /// Best-effort mlock of the slab (ignored when the platform refuses,
    /// e.g. RLIMIT_MEMLOCK inside containers).
    bool pin = false;
  };

  /// Monotonic counters; snapshot under the pool lock so the fields are
  /// mutually consistent.
  struct Stats {
    u64 acquires = 0;
    u64 releases = 0;
    /// Requests larger than the slab served from the heap — the alloc-churn
    /// metric gates this at zero for steady-state iterations.
    u64 heap_fallbacks = 0;
    /// acquire() calls that had to sleep for slab space (backpressure).
    u64 blocked_waits = 0;
    u64 bytes_in_use = 0;
    u64 peak_bytes_in_use = 0;
  };

  /// Throws std::invalid_argument for a zero granule or an empty slab.
  explicit BufferPool(const Options& options);

  /// RAII lease on a pooled span; returns it on destruction.
  class Lease {
   public:
    Lease() = default;
    ~Lease() { release(); }
    Lease(Lease&& o) noexcept
        : pool_(o.pool_), alloc_(o.alloc_), data_(o.data_), size_(o.size_),
          heap_(std::move(o.heap_)) {
      o.pool_ = nullptr;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        alloc_ = o.alloc_;
        data_ = o.data_;
        size_ = o.size_;
        heap_ = std::move(o.heap_);
        o.pool_ = nullptr;
        o.data_ = nullptr;
        o.size_ = 0;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    u8* data() { return data_; }
    const u8* data() const { return data_; }
    /// Requested size (the slab reservation may be granule-rounded larger).
    std::size_t size() const { return size_; }
    std::span<u8> bytes() { return {data_, size_}; }
    std::span<const u8> bytes() const { return {data_, size_}; }
    template <typename T>
    std::span<T> as() {
      return {reinterpret_cast<T*>(data_), size_ / sizeof(T)};
    }
    bool valid() const { return data_ != nullptr; }
    void release();

   private:
    friend class BufferPool;
    Lease(BufferPool* pool, OffsetAllocator::Allocation alloc, u8* data,
          std::size_t size)
        : pool_(pool), alloc_(alloc), data_(data), size_(size) {}

    Lease(BufferPool* pool, AlignedBuffer heap)
        : pool_(pool), data_(heap.data()), size_(heap.size()),
          heap_(std::move(heap)) {}

    BufferPool* pool_ = nullptr;
    OffsetAllocator::Allocation alloc_;
    u8* data_ = nullptr;
    std::size_t size_ = 0;
    AlignedBuffer heap_;
  };

  ~BufferPool();

  /// Blocks until `bytes` of slab space are free. Oversize requests (larger
  /// than the slab) are served from the heap and counted in
  /// stats().heap_fallbacks so they can never deadlock the caller.
  Lease acquire(std::size_t bytes);
  /// Non-blocking variant; returns an invalid lease when the slab cannot
  /// satisfy the request right now.
  Lease try_acquire(std::size_t bytes);

  std::size_t slab_bytes() const { return slab_.size(); }
  std::size_t granule() const { return granule_; }
  bool pinned() const { return pinned_; }
  std::size_t free_bytes() const;
  Stats stats() const;
  /// Zeroes the monotonic counters (bytes_in_use/peak reset to current
  /// usage). Call between iterations to measure per-iteration churn.
  void reset_stats();

 private:
  friend class Lease;
  void put_back(const OffsetAllocator::Allocation& alloc);
  void note_heap_release();

  std::size_t granule_;
  bool pinned_ = false;
  AlignedBuffer slab_;

  mutable Mutex mutex_;
  CondVar cv_;
  OffsetAllocator allocator_ MLPO_GUARDED_BY(mutex_);
  Stats stats_ MLPO_GUARDED_BY(mutex_);
};

}  // namespace mlpo
