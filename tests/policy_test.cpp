// The pluggable policy layer: registry round-trips, the built-in
// placement/ordering strategies, preset bundles, and the strict
// EngineOptions validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/engine.hpp"
#include "policy/policy_registry.hpp"

namespace mlpo {
namespace {

// ---------------------------------------------------------------- registry

TEST(PolicyRegistry, EveryBuiltinPlacementPolicyRoundTrips) {
  const auto names = placement_policy_names();
  EXPECT_GE(names.size(), 5u);
  for (const auto& name : names) {
    const auto policy = make_placement_policy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(PolicyRegistry, EveryBuiltinOrderPolicyRoundTrips) {
  const auto names = update_order_policy_names();
  EXPECT_GE(names.size(), 3u);
  for (const auto& name : names) {
    const auto policy = make_update_order_policy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(PolicyRegistry, ExpectedBuiltinsArePresent) {
  const auto p = placement_policy_names();
  for (const char* name : {"eq1_static", "adaptive_ema", "round_robin",
                           "bandwidth_greedy", "contention_aware"}) {
    EXPECT_NE(std::find(p.begin(), p.end(), name), p.end()) << name;
  }
  const auto o = update_order_policy_names();
  for (const char* name :
       {"ascending", "alternating_cache_friendly", "host_resident_first"}) {
    EXPECT_NE(std::find(o.begin(), o.end(), name), o.end()) << name;
  }
}

TEST(PolicyRegistry, UnknownNamesFailLoudlyListingKnownOnes) {
  try {
    make_placement_policy("definitely_not_a_policy");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("definitely_not_a_policy"), std::string::npos);
    EXPECT_NE(what.find("adaptive_ema"), std::string::npos)
        << "error must list the registered policies: " << what;
  }
  EXPECT_THROW(make_update_order_policy("bogus"), std::invalid_argument);
}

TEST(PolicyRegistry, ExtensionsCanRegisterNewOrderPolicies) {
  class Reversed final : public UpdateOrderPolicy {
   public:
    const std::string& name() const override {
      static const std::string n = "test_reversed";
      return n;
    }
    bool uses_host_cache() const override { return false; }
    std::vector<u32> order(u32 n, u64, std::span<const u32>) const override {
      std::vector<u32> o(n);
      std::iota(o.rbegin(), o.rend(), 0u);
      return o;
    }
  };
  register_update_order_policy("test_reversed",
                               [] { return std::make_unique<Reversed>(); });
  const auto policy = make_update_order_policy("test_reversed");
  EXPECT_EQ(policy->order(3, 0, {}), (std::vector<u32>{2, 1, 0}));
}

// ---------------------------------------------------------- order policies

bool is_permutation_of_iota(const std::vector<u32>& order, u32 n) {
  std::vector<u32> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<u32> iota(n);
  std::iota(iota.begin(), iota.end(), 0u);
  return sorted == iota;
}

TEST(UpdateOrderPolicies, EveryPolicyReturnsAPermutation) {
  const std::vector<u32> residents = {2, 5};
  const std::vector<u32> no_residents;
  for (const auto& name : update_order_policy_names()) {
    const auto policy = make_update_order_policy(name);
    for (const u32 n : {0u, 1u, 6u, 9u}) {
      for (u64 iter = 0; iter < 4; ++iter) {
        const auto order =
            policy->order(n, iter, n > 5 ? residents : no_residents);
        EXPECT_TRUE(is_permutation_of_iota(order, n))
            << name << " n=" << n << " iter=" << iter;
      }
    }
  }
}

TEST(UpdateOrderPolicies, AscendingNeverAlternatesAndSkipsTheCache) {
  const auto policy = make_update_order_policy("ascending");
  EXPECT_FALSE(policy->uses_host_cache());
  const std::vector<u32> asc = {0, 1, 2, 3};
  for (u64 iter = 0; iter < 4; ++iter) {
    EXPECT_EQ(policy->order(4, iter, {}), asc) << iter;
  }
}

TEST(UpdateOrderPolicies, AlternatingFlipsParityPerIteration) {
  const auto policy = make_update_order_policy("alternating_cache_friendly");
  EXPECT_TRUE(policy->uses_host_cache());
  const std::vector<u32> asc = {0, 1, 2, 3};
  const std::vector<u32> desc = {3, 2, 1, 0};
  EXPECT_EQ(policy->order(4, 0, {}), asc);
  EXPECT_EQ(policy->order(4, 1, {}), desc);
  EXPECT_EQ(policy->order(4, 2, {}), asc);
  EXPECT_EQ(policy->order(4, 3, {}), desc);
}

TEST(UpdateOrderPolicies, AlternatingAdjacentIterationsShareTheirBoundary) {
  // The cache-hit mechanism: the tail of iteration k leads iteration k+1.
  const auto policy = make_update_order_policy("alternating_cache_friendly");
  const u32 n = 7;
  for (u64 iter = 0; iter < 3; ++iter) {
    const auto cur = policy->order(n, iter, {});
    const auto next = policy->order(n, iter + 1, {});
    EXPECT_EQ(cur.back(), next.front()) << iter;
  }
}

TEST(UpdateOrderPolicies, HostResidentFirstLeadsWithResidentsMruFirst) {
  const auto policy = make_update_order_policy("host_resident_first");
  EXPECT_TRUE(policy->uses_host_cache());
  // Residents arrive LRU-first: 4 is the coldest, 1 the hottest.
  const std::vector<u32> residents = {4, 2, 1};
  const auto order = policy->order(6, /*iteration=*/0, residents);
  EXPECT_EQ(order, (std::vector<u32>{1, 2, 4, 0, 3, 5}));
}

TEST(UpdateOrderPolicies, HostResidentFirstIgnoresStaleAndDuplicateIds) {
  const auto policy = make_update_order_policy("host_resident_first");
  const std::vector<u32> residents = {9, 1, 1};  // 9 out of range, 1 twice
  const auto order = policy->order(3, 0, residents);
  EXPECT_EQ(order, (std::vector<u32>{1, 0, 2}));
}

// ------------------------------------------------------ placement policies

TEST(PlacementPolicies, EveryPolicyYieldsAValidFullPlacement) {
  const std::vector<f64> bw = {3e9, 2e9, 1e9};
  const u32 n = 10;
  for (const auto& name : placement_policy_names()) {
    const auto policy = make_placement_policy(name);
    policy->bind(bw, n);
    const auto quotas = policy->quotas();
    ASSERT_EQ(quotas.size(), bw.size()) << name;
    EXPECT_EQ(std::accumulate(quotas.begin(), quotas.end(), 0u), n) << name;
    for (u32 idx = 0; idx < n; ++idx) {
      EXPECT_LT(policy->path_for(idx), bw.size()) << name << " idx " << idx;
    }
    EXPECT_EQ(policy->bandwidths(), bw) << name << " before observations";
  }
}

TEST(PlacementPolicies, Eq1StaticIgnoresObservations) {
  const auto policy = make_placement_policy("eq1_static");
  policy->bind({2e9, 1e9}, 9);
  const auto quotas = policy->quotas();
  EXPECT_EQ(quotas, (std::vector<u32>{6, 3}));
  // Hammer it with observations claiming path 1 is far faster...
  for (int i = 0; i < 50; ++i) policy->observe(1, 1 * GiB, 0.001, 0.0);
  policy->rebalance();
  EXPECT_EQ(policy->quotas(), quotas) << "static placement must not move";
  EXPECT_EQ(policy->bandwidths(), (std::vector<f64>{2e9, 1e9}));
}

TEST(PlacementPolicies, AdaptiveEmaRepartitionsTowardObservedBandwidth) {
  const auto policy = make_placement_policy("adaptive_ema");
  policy->bind({1e9, 1e9}, 8);
  EXPECT_EQ(policy->quotas(), (std::vector<u32>{4, 4}));
  // Path 0 observed 3x faster than path 1.
  for (int i = 0; i < 20; ++i) {
    policy->observe(0, 3 * GiB, 1.0, 0.0);
    policy->observe(1, 1 * GiB, 1.0, 0.0);
  }
  policy->rebalance();
  EXPECT_EQ(policy->quotas(), (std::vector<u32>{6, 2}));
}

TEST(PlacementPolicies, RoundRobinInterleavesRegardlessOfBandwidth) {
  const auto policy = make_placement_policy("round_robin");
  policy->bind({100e9, 1e9}, 6);
  for (u32 idx = 0; idx < 6; ++idx) {
    EXPECT_EQ(policy->path_for(idx), idx % 2) << idx;
  }
  EXPECT_EQ(policy->quotas(), (std::vector<u32>{3, 3}));
}

TEST(PlacementPolicies, BandwidthGreedyTracksProportionality) {
  const auto policy = make_placement_policy("bandwidth_greedy");
  policy->bind({3e9, 1e9}, 8);
  // Greedy earliest-finish-time on a 3:1 split -> 6:2.
  EXPECT_EQ(policy->quotas(), (std::vector<u32>{6, 2}));
  // First subgroup lands on the fastest path.
  EXPECT_EQ(policy->path_for(0), 0u);
}

TEST(PlacementPolicies, ContentionAwareShedsLoadFromCongestedPaths) {
  const auto policy = make_placement_policy("contention_aware");
  policy->bind({1e9, 1e9}, 8);
  EXPECT_EQ(policy->quotas(), (std::vector<u32>{4, 4}));
  // Both paths serve at the same device speed, but path 1's requests sit in
  // a long queue first — its *effective* throughput is 4x worse.
  for (int i = 0; i < 20; ++i) {
    policy->observe(0, 1 * GiB, 1.0, 0.0);
    policy->observe(1, 1 * GiB, 1.0, 3.0);
  }
  policy->rebalance();
  const auto quotas = policy->quotas();
  EXPECT_GT(quotas[0], quotas[1])
      << "queue waits must count against a path's share";
}

TEST(PlacementPolicies, UseBeforeBindFailsLoudly) {
  for (const auto& name : placement_policy_names()) {
    EXPECT_THROW(make_placement_policy(name)->path_for(0), std::logic_error)
        << name;
    EXPECT_THROW(make_placement_policy(name)->quotas(), std::logic_error)
        << name;
  }
}

// ------------------------------------------------------ presets/validation

TEST(EnginePresets, EveryNamedBundleValidates) {
  for (const auto& name : EngineOptions::preset_names()) {
    const EngineOptions opts = EngineOptions::preset(name);
    EXPECT_NO_THROW(opts.validate()) << name;
  }
  EXPECT_THROW(EngineOptions::preset("warp_drive"), std::invalid_argument);
}

TEST(EnginePresets, BundlesMatchThePaperAblationSteps) {
  const auto ds = EngineOptions::preset("deepspeed_zero3");
  EXPECT_FALSE(ds.multipath);
  EXPECT_EQ(ds.update_order_policy, "ascending");
  EXPECT_FALSE(ds.delayed_grad_conversion);
  EXPECT_FALSE(ds.tier_exclusive_locking);

  const auto mp = EngineOptions::preset("multipath_caching");
  EXPECT_TRUE(mp.multipath);
  EXPECT_EQ(mp.update_order_policy, "alternating_cache_friendly");
  EXPECT_FALSE(mp.delayed_grad_conversion);

  const auto skip = EngineOptions::preset("mp_skip_grads");
  EXPECT_TRUE(skip.delayed_grad_conversion);
  EXPECT_FALSE(skip.tier_exclusive_locking);

  const auto ours = EngineOptions::preset("mlp_offload");
  EXPECT_TRUE(ours.tier_exclusive_locking);
  EXPECT_EQ(ours.placement_policy, "adaptive_ema");

  EXPECT_EQ(EngineOptions::preset("mlp_offload_static").placement_policy,
            "eq1_static");
  EXPECT_EQ(EngineOptions::preset("cpu_only").engine, "cpu_only");
  EXPECT_EQ(EngineOptions::preset("tensor_nvme").engine, "tensor_nvme");
}

TEST(EngineOptionsValidation, RejectsCacheOrderWithEmptyCache) {
  EngineOptions opts;  // alternating_cache_friendly by default
  opts.host_cache_subgroups = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  // The same capacity is fine for a non-caching schedule.
  opts.update_order_policy = "ascending";
  EXPECT_NO_THROW(opts.validate());
}

TEST(EngineOptionsValidation, RejectsCacheShallowerThanPrefetchWindow) {
  EngineOptions opts;
  opts.prefetch_ahead = 3;
  opts.host_cache_subgroups = 3;  // < prefetch_ahead + 1
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.host_cache_subgroups = 4;
  EXPECT_NO_THROW(opts.validate());
}

TEST(EngineOptionsValidation, RejectsPipelineWithNoOverlapAndNoReuse) {
  EngineOptions opts = EngineOptions::deepspeed_zero3();
  opts.prefetch_ahead = 0;
  opts.host_cache_subgroups = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  // A non-zero cache knob does not help: the non-caching order policy
  // disables the cache regardless, so the pipeline is still serial.
  opts.host_cache_subgroups = 3;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.prefetch_ahead = 1;
  EXPECT_NO_THROW(opts.validate());
  // prefetch_ahead=0 is fine when a caching policy provides the reuse.
  EngineOptions cached;
  cached.prefetch_ahead = 0;
  EXPECT_NO_THROW(cached.validate());
}

TEST(EngineOptionsValidation, RejectsUnknownPolicyNames) {
  EngineOptions opts;
  opts.placement_policy = "mystery";
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = EngineOptions{};
  opts.update_order_policy = "mystery";
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace mlpo
