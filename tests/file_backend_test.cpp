// End-to-end engine run over REAL files: the production (non-emulated)
// path. FileTier- and UringFileTier-backed virtual tiers, genuine POSIX
// and io_uring I/O, wall-clock time (time_scale 1) — proves the engine
// logic is backend-agnostic and that the emulated runs exercise the same
// code paths as real storage.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <iostream>

#include "core/offload_engine.hpp"
#include "io/uring_backend.hpp"
#include "tiers/file_tier.hpp"
#include "tiers/memory_tier.hpp"

namespace mlpo {
namespace {

namespace fs = std::filesystem;

class FileBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each TEST as its own process in parallel; the directory
    // must be unique per test instance or concurrent SetUps clobber each
    // other.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("mlpo_fbt_") + info->name() + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
    vtier_.add_path(std::make_shared<FileTier>("disk0", root_ / "disk0"));
    vtier_.add_path(std::make_shared<FileTier>("disk1", root_ / "disk1"));
    io_ = std::make_unique<IoScheduler>(clock_, &vtier_, IoScheduler::Config{});
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  SimClock clock_{1.0};  // genuine wall-clock time
  VirtualTier vtier_;
  GradSource grads_;
  std::unique_ptr<IoScheduler> io_;
};

TEST_F(FileBackendTest, FullTrainingLoopOverRealFiles) {
  EngineContext ctx;
  ctx.clock = &clock_;
  ctx.vtier = &vtier_;
  ctx.io = io_.get();
  ctx.grads = &grads_;

  EngineOptions opts = EngineOptions::mlp_offload();
  opts.elem_scale = 1;  // full fidelity; real bytes == simulated bytes
  opts.host_cache_subgroups = 2;
  opts.cpu_update_rate = 1e12;  // don't sleep on compute
  opts.convert.fp32_bytes_per_sec = 1e15;

  const auto layout = make_shard_layout(1024 * 6, 1, 0, 1024);
  OffloadEngine engine(ctx, opts, layout);
  engine.initialize();

  // Subgroup files must exist on disk after the initial distribution.
  std::size_t files = 0;
  for (const auto& dir : {root_ / "disk0", root_ / "disk1"}) {
    if (fs::exists(dir)) {
      for (auto it = fs::directory_iterator(dir);
           it != fs::directory_iterator(); ++it) {
        ++files;
      }
    }
  }
  EXPECT_EQ(files, 6u);

  for (u64 iter = 0; iter < 3; ++iter) {
    for (u32 id = 0; id < engine.num_subgroups(); ++id) {
      engine.deposit_gradients_async(iter, id, true, true);
    }
    engine.wait_gradient_io();
    const auto report = engine.run_update(iter);
    EXPECT_EQ(report.subgroups_processed, 6u);
  }
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    EXPECT_EQ(engine.snapshot_subgroup(id).step(), 3u) << id;
  }
}

TEST_F(FileBackendTest, StateMatchesEmulatedBackend) {
  // The same schedule over files and over memory tiers must produce
  // identical optimizer state — storage backends cannot affect math. The
  // uring_file backends settle state fetches and flushes from their own
  // completion threads, straight into and out of the subgroup images.
  const auto layout = make_shard_layout(512 * 4, 1, 0, 512);
  EngineOptions opts = EngineOptions::mlp_offload();
  opts.elem_scale = 1;
  opts.host_cache_subgroups = 2;
  opts.cpu_update_rate = 1e12;
  opts.convert.fp32_bytes_per_sec = 1e15;

  const auto run = [&](VirtualTier& vtier, IoScheduler& io) {
    EngineContext ctx;
    ctx.clock = &clock_;
    ctx.vtier = &vtier;
    ctx.io = &io;
    ctx.grads = &grads_;
    OffloadEngine engine(ctx, opts, layout);
    engine.initialize();
    for (u64 iter = 0; iter < 2; ++iter) {
      for (u32 id = 0; id < engine.num_subgroups(); ++id) {
        engine.deposit_gradients_async(iter, id, true, true);
      }
      engine.wait_gradient_io();
      engine.run_update(iter);
    }
    return engine.state_checksum();
  };

  VirtualTier mem_vtier;
  mem_vtier.add_path(std::make_shared<MemoryTier>("m0"));
  mem_vtier.add_path(std::make_shared<MemoryTier>("m1"));
  IoScheduler mem_io(clock_, &mem_vtier, {});
  const u64 mem_digest = run(mem_vtier, mem_io);

  EXPECT_EQ(run(vtier_, *io_), mem_digest) << "file";

  for (const bool fallback : {false, true}) {
    const char* variant = fallback ? "uring_file fallback" : "uring_file";
    if (!fallback && !AsyncFileBackend::kernel_supports_uring()) {
      std::cout << "kernel refuses io_uring; skipping " << variant << "\n";
      continue;
    }
    UringFileTier::Options o;
    o.force_fallback = fallback;
    const fs::path dir = root_ / (fallback ? "fallback" : "uring");
    VirtualTier uring_vtier;
    uring_vtier.add_path(std::make_shared<UringFileTier>("u0", dir / "0", o));
    uring_vtier.add_path(std::make_shared<UringFileTier>("u1", dir / "1", o));
    IoScheduler uring_io(clock_, &uring_vtier, {});
    EXPECT_EQ(run(uring_vtier, uring_io), mem_digest) << variant;
  }
}

}  // namespace
}  // namespace mlpo
