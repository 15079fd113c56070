#include "core/disk_offloader.hpp"

namespace mlpo {

std::future<void> DiskOffloader::async_write(const std::string& key,
                                             std::span<const f32> data,
                                             u64 sim_bytes) {
  IoRequest req = IoRequest::external_op(IoOp::kWrite, tier_, key, sim_bytes,
                                         IoPriority::kLazyFlush);
  req.src = std::span<const u8>(reinterpret_cast<const u8*>(data.data()),
                                data.size() * sizeof(f32));
  req.tenant = tenant_;
  // Keep a copy in the drain set; share completion with the caller.
  auto shared = io_->submit(std::move(req)).share();
  pending_.add(std::async(std::launch::deferred, [shared] { shared.get(); }));
  return std::async(std::launch::deferred, [shared] { shared.get(); });
}

std::future<void> DiskOffloader::async_read(const std::string& key,
                                            std::span<f32> data,
                                            u64 sim_bytes) {
  IoRequest req = IoRequest::external_op(IoOp::kRead, tier_, key, sim_bytes,
                                         IoPriority::kDemandPrefetch);
  req.dst = std::span<u8>(reinterpret_cast<u8*>(data.data()),
                          data.size() * sizeof(f32));
  req.tenant = tenant_;
  auto shared = io_->submit(std::move(req)).share();
  pending_.add(std::async(std::launch::deferred, [shared] { shared.get(); }));
  return std::async(std::launch::deferred, [shared] { shared.get(); });
}

void DiskOffloader::synchronize() { pending_.wait_all(); }

}  // namespace mlpo
