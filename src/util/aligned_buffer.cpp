#include "util/aligned_buffer.hpp"

#include <sys/mman.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>

namespace mlpo {

AlignedBuffer::AlignedBuffer(std::size_t size, std::size_t alignment)
    : size_(size) {
  if (size == 0) return;
  // Round the allocation up to the alignment so aligned_alloc's size
  // requirement is always met.
  const std::size_t alloc = (size + alignment - 1) / alignment * alignment;
  data_ = static_cast<u8*>(std::aligned_alloc(alignment, alloc));
  if (data_ == nullptr) throw std::bad_alloc();
  std::memset(data_, 0, alloc);
}

namespace {

#ifdef MAP_POPULATE
/// `size` bytes of zeroed anonymous memory, every page already faulted in.
u8* map_populated(std::size_t size) {
#if defined(MADV_HUGEPAGE) && defined(MADV_POPULATE_WRITE)
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  constexpr std::size_t kPage = 4096;
  if (size >= 8 * kHugePage) {
    // Over-map by one huge page and trim to a 2 MiB-aligned start, so the
    // kernel can back every whole 2 MiB stretch with a huge page.
    const std::size_t mapped = (size + kPage - 1) / kPage * kPage;
    const std::size_t over = mapped + kHugePage;
    void* raw = ::mmap(nullptr, over, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    u8* const base = static_cast<u8*>(raw);
    const auto addr = reinterpret_cast<std::uintptr_t>(base);
    u8* const aligned = base + ((kHugePage - addr % kHugePage) % kHugePage);
    if (aligned > base) ::munmap(base, aligned - base);
    const std::size_t tail = (base + over) - (aligned + mapped);
    if (tail > 0) ::munmap(aligned + mapped, tail);
    ::madvise(aligned, mapped, MADV_HUGEPAGE);
    if (::madvise(aligned, mapped, MADV_POPULATE_WRITE) != 0) {
      std::memset(aligned, 0, size);  // kernels before 5.14: fault by touch
    }
    return aligned;
  }
#endif
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<u8*>(p);
}
#endif

void free_buffer(u8* data, std::size_t size, bool mapped) {
  if (mapped) {
    ::munmap(data, size);
  } else {
    std::free(data);
  }
}

}  // namespace

AlignedBuffer AlignedBuffer::populated(std::size_t size) {
#ifdef MAP_POPULATE
  AlignedBuffer buf;
  if (size == 0) return buf;
  buf.data_ = map_populated(size);
  buf.size_ = size;
  buf.mapped_ = true;
  return buf;
#else
  return AlignedBuffer(size);
#endif
}

AlignedBuffer::~AlignedBuffer() { free_buffer(data_, size_, mapped_); }

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(other.data_), size_(other.size_), mapped_(other.mapped_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    free_buffer(data_, size_, mapped_);
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

namespace {

// Validates `o` and returns its slab size rounded up to whole granules.
std::size_t checked_slab_bytes(const BufferPool::Options& o) {
  if (o.granule == 0) {
    throw std::invalid_argument("BufferPool: granule must be positive");
  }
  if (o.slab_bytes == 0) {
    throw std::invalid_argument("BufferPool: need a non-empty slab");
  }
  return (o.slab_bytes + o.granule - 1) / o.granule * o.granule;
}

}  // namespace

BufferPool::BufferPool(const Options& options)
    : granule_(options.granule),
      slab_(checked_slab_bytes(options), options.granule),
      allocator_(slab_.size(), granule_) {
  if (options.pin) {
    // Best effort: RLIMIT_MEMLOCK commonly forbids this inside containers,
    // and emulation does not need residency guarantees.
    pinned_ = ::mlock(slab_.data(), slab_.size()) == 0;
  }
}

BufferPool::~BufferPool() {
  if (pinned_) ::munlock(slab_.data(), slab_.size());
}

void BufferPool::Lease::release() {
  if (pool_ != nullptr) {
    if (alloc_.valid()) {
      pool_->put_back(alloc_);
    } else {
      pool_->note_heap_release();
      heap_ = AlignedBuffer();
    }
    pool_ = nullptr;
  }
  data_ = nullptr;
  size_ = 0;
}

BufferPool::Lease BufferPool::acquire(std::size_t bytes) {
  const std::size_t want = bytes == 0 ? 1 : bytes;
  if (want > slab_.size()) {
    {
      MutexLock lock(mutex_);
      ++stats_.acquires;
      ++stats_.heap_fallbacks;
    }
    return Lease(this, AlignedBuffer(want, granule_));
  }
  MutexLock lock(mutex_);
  ++stats_.acquires;
  for (;;) {
    const auto alloc = allocator_.allocate(want);
    if (alloc.valid()) {
      stats_.bytes_in_use += alloc.bytes;
      if (stats_.bytes_in_use > stats_.peak_bytes_in_use) {
        stats_.peak_bytes_in_use = stats_.bytes_in_use;
      }
      return Lease(this, alloc, slab_.data() + alloc.offset, want);
    }
    ++stats_.blocked_waits;
    cv_.wait(lock);
  }
}

BufferPool::Lease BufferPool::try_acquire(std::size_t bytes) {
  const std::size_t want = bytes == 0 ? 1 : bytes;
  if (want > slab_.size()) return Lease{};
  MutexLock lock(mutex_);
  const auto alloc = allocator_.allocate(want);
  if (!alloc.valid()) return Lease{};
  ++stats_.acquires;
  stats_.bytes_in_use += alloc.bytes;
  if (stats_.bytes_in_use > stats_.peak_bytes_in_use) {
    stats_.peak_bytes_in_use = stats_.bytes_in_use;
  }
  return Lease(this, alloc, slab_.data() + alloc.offset, want);
}

std::size_t BufferPool::free_bytes() const {
  MutexLock lock(mutex_);
  return allocator_.free_bytes();
}

BufferPool::Stats BufferPool::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void BufferPool::reset_stats() {
  MutexLock lock(mutex_);
  const u64 in_use = stats_.bytes_in_use;
  stats_ = Stats{};
  stats_.bytes_in_use = in_use;
  stats_.peak_bytes_in_use = in_use;
}

void BufferPool::put_back(const OffsetAllocator::Allocation& alloc) {
  {
    MutexLock lock(mutex_);
    allocator_.release(alloc);
    ++stats_.releases;
    stats_.bytes_in_use -= alloc.bytes;
  }
  // Any waiter might now fit (sizes differ), so wake them all.
  cv_.notify_all();
}

void BufferPool::note_heap_release() {
  MutexLock lock(mutex_);
  ++stats_.releases;
}

}  // namespace mlpo
