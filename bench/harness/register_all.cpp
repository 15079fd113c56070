// Explicit registration of every bench case. Static-initializer
// registration drops out of static archives; this list is the one place a
// new case must be added (the build will not fail if you forget, but
// mlpo-bench --list makes the omission obvious).
#include "harness/bench_registry.hpp"

namespace mlpo::bench {

void register_fig01_memory_wall(BenchRegistry&);
void register_fig03_update_io_fraction(BenchRegistry&);
void register_fig04_tier_concurrency(BenchRegistry&);
void register_fig05_subgroup_throughput(BenchRegistry&);
void register_fig07_iteration_breakdown(BenchRegistry&);
void register_fig08_update_throughput(BenchRegistry&);
void register_fig09_io_throughput(BenchRegistry&);
void register_fig10_tier_distribution(BenchRegistry&);
void register_fig11_weak_scaling_time(BenchRegistry&);
void register_fig12_weak_scaling_thru(BenchRegistry&);
void register_fig13_grad_accum(BenchRegistry&);
void register_fig_calibration(BenchRegistry&);
void register_fig14_ablation_nvme(BenchRegistry&);
void register_fig15_ablation_multipath(BenchRegistry&);
void register_fig_io_scheduler(BenchRegistry&);
void register_fig_io_scheduler_graph(BenchRegistry&);
void register_fig_tenancy_sweep(BenchRegistry&);
void register_table1_testbeds(BenchRegistry&);
void register_table2_models(BenchRegistry&);
void register_ablation_adaptive_model(BenchRegistry&);
void register_ablation_policy_sweep(BenchRegistry&);
void register_ablation_prefetch_depth(BenchRegistry&);
void register_ablation_subgroup_size(BenchRegistry&);
void register_extension_virtual_tiers(BenchRegistry&);
void register_recovery_overhead(BenchRegistry&);

void register_all_cases(BenchRegistry& registry) {
  // Idempotent per registry (not per process): a second registry gets its
  // own full set of cases.
  if (registry.find("fig01_memory_wall") != nullptr) return;
  register_fig01_memory_wall(registry);
  register_fig03_update_io_fraction(registry);
  register_fig04_tier_concurrency(registry);
  register_fig05_subgroup_throughput(registry);
  register_fig07_iteration_breakdown(registry);
  register_fig08_update_throughput(registry);
  register_fig09_io_throughput(registry);
  register_fig10_tier_distribution(registry);
  register_fig11_weak_scaling_time(registry);
  register_fig12_weak_scaling_thru(registry);
  register_fig13_grad_accum(registry);
  register_fig_calibration(registry);
  register_fig14_ablation_nvme(registry);
  register_fig15_ablation_multipath(registry);
  register_fig_io_scheduler(registry);
  register_fig_io_scheduler_graph(registry);
  register_fig_tenancy_sweep(registry);
  register_table1_testbeds(registry);
  register_table2_models(registry);
  register_ablation_adaptive_model(registry);
  register_ablation_policy_sweep(registry);
  register_ablation_prefetch_depth(registry);
  register_ablation_subgroup_size(registry);
  register_extension_virtual_tiers(registry);
  register_recovery_overhead(registry);
}

}  // namespace mlpo::bench
