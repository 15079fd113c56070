// The benchmark's metric catalogue. BENCHMARK.json at the repository root
// lists the same names and units; `mlpo-benchmark --smoke --schema
// BENCHMARK.json` fails when the two drift apart.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace mlpo::benchmark {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Printed by an untraced run: what a user of the trainer sees.
const std::vector<MetricDef>& end_to_end_metrics();

/// Printed by a traced run: one group per src/ module.
const std::vector<MetricDef>& per_layer_metrics();

/// The four I/O scheduler priority classes, in IoPriority order.
inline const std::vector<std::string>& io_class_names() {
  static const std::vector<std::string> names{"demand", "grad", "flush",
                                              "ckpt"};
  return names;
}

/// VirtualTier paths in attach order (NVMe first, PFS when attached).
inline const std::vector<std::string>& tier_path_names() {
  static const std::vector<std::string> names{"nvme", "pfs"};
  return names;
}

using MetricValues = std::map<std::string, double>;

}  // namespace mlpo::benchmark
