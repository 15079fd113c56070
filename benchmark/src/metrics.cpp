#include "metrics.hpp"

namespace mlpo::benchmark {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs{
      {"iter_s_p50", "s"},
      {"iter_s_p90", "s"},
      {"update_mparams_per_s", "Mparams/s"},
      {"agg_mparams_per_s", "Mparams/s"},
      {"heavy_iter_s_p50", "s"},
      {"cpu_s_per_iter", "s"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d{
        {"runtime.construct_s", "s"},
        {"runtime.initialize_s", "s"},
        {"runtime.iter_s_p50", "s"},
        {"runtime.forward_s_p50", "s"},
        {"runtime.backward_s_p50", "s"},
        {"runtime.update_s_p50", "s"},
        {"runtime.backward_overhead_s", "s"},
        {"runtime.iteration_wall_ms_p50", "ms"},
        {"core.cache_hit_ratio", "ratio"},
        {"core.fetch_s_per_iter", "s"},
        {"core.flush_s_per_iter", "s"},
        {"core.compute_s_per_iter", "s"},
        {"core.update_io_fraction", "ratio"},
        {"core.effective_io_gbps", "GB/s"},
        {"core.fetched_gb_per_iter", "GB"},
        {"core.flushed_gb_per_iter", "GB"},
    };
    for (const auto& cls : io_class_names()) {
      d.push_back({"io." + cls + ".requests_per_iter", "count"});
      d.push_back({"io." + cls + ".queue_wait_ms_mean", "ms"});
      d.push_back({"io." + cls + ".service_ms_mean", "ms"});
      d.push_back({"io." + cls + ".cancelled", "count"});
    }
    d.push_back({"io.coalesced_batches_per_iter", "count"});
    d.push_back({"io.max_queue_depth", "count"});
    d.push_back({"io.failed", "count"});
    d.push_back({"io.tenant_share_ratio_min", "ratio"});
    for (const auto& path : tier_path_names()) {
      d.push_back({"tiers." + path + ".reads_per_iter", "count"});
      d.push_back({"tiers." + path + ".writes_per_iter", "count"});
      d.push_back({"tiers." + path + ".read_gb_per_iter", "GB"});
      d.push_back({"tiers." + path + ".write_gb_per_iter", "GB"});
      d.push_back({"tiers." + path + ".read_gbps", "GB/s"});
      d.push_back({"tiers." + path + ".write_gbps", "GB/s"});
    }
    d.push_back({"policy.host_state_share", "ratio"});
    d.push_back({"policy.pfs_state_share", "ratio"});
    d.push_back({"policy.bw_estimate_error_pct", "%"});
    d.push_back({"util.pool_acquires_per_iter", "count"});
    d.push_back({"util.pool_heap_fallbacks", "count"});
    d.push_back({"util.pool_blocked_waits_per_iter", "count"});
    d.push_back({"util.pool_peak_mib", "MiB"});
    d.push_back({"train.adam_gbps", "GB/s"});
    d.push_back({"train.fp16_upscale_gbps", "GB/s"});
    d.push_back({"train.grad_generate_gbps", "GB/s"});
    d.push_back({"train.memcpy_gbps", "GB/s"});
    d.push_back({"train.adam_roofline_frac", "ratio"});
    d.push_back({"train.upscale_roofline_frac", "ratio"});
    d.push_back({"graph.frontier_high_water", "count"});
    d.push_back({"graph.tasks_stolen_per_iter", "count"});
    d.push_back({"graph.executor_idle_s_per_iter", "s"});
    d.push_back({"proc.threads", "count"});
    d.push_back({"proc.cpu_s_per_iter", "s"});
    d.push_back({"proc.calibration_ms", "ms"});
    d.push_back({"trace_overhead_pct", "%"});
    return d;
  }();
  return defs;
}

}  // namespace mlpo::benchmark
