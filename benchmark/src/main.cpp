// mlpo-benchmark: the repository benchmark driver.
//
//   mlpo-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//                  [--trace-file PATH] [--work-dir DIR]
//   mlpo-benchmark --list
//   mlpo-benchmark --smoke [--schema BENCHMARK.json] [--work-dir DIR]
//
// A run prints every metric by name with its unit, then an {"env": ...}
// line recording the environment, then, as its last line, the result
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; --trace 1 reports the per-layer metrics
// and writes a Chrome trace (default <work-dir>/traces/W-seedN.trace.json).
//
// Exit status: 0 success; 1 runtime error or invalid metrics; 2 bad usage,
// or the final optimizer state differs from the cpu_only reference.
#include <malloc.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace mb = mlpo::benchmark;
namespace fs = std::filesystem;
namespace json = mlpo::json;

namespace {

constexpr int kUsageError = 2;
constexpr int kChecksumMismatch = 2;

std::string known_workloads() {
  std::string out;
  for (const auto& w : mb::workloads()) {
    out += (out.empty() ? "" : ", ") + w.name;
  }
  return out;
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "mlpo-benchmark: %s\n"
               "usage: mlpo-benchmark --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-file PATH] [--work-dir DIR]\n"
               "       mlpo-benchmark --list\n"
               "       mlpo-benchmark --smoke [--schema BENCHMARK.json] "
               "[--work-dir DIR]\n"
               "workloads: %s\n",
               message.c_str(), known_workloads().c_str());
  std::exit(kUsageError);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    usage_error(flag + " expects a number, got '" + text + "'");
  }
  return value;
}

struct Cli {
  enum class Mode { kRun, kList, kSmoke } mode = Mode::kRun;
  mb::RunOptions run;
  std::string trace_file;
  std::string schema;
};

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      cli.mode = Cli::Mode::kList;
      continue;
    }
    if (flag == "--smoke") {
      cli.mode = Cli::Mode::kSmoke;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!mb::is_workload(value)) {
        usage_error("unknown workload '" + value + "'");
      }
      cli.run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cli.run.seed = parse_number<mlpo::u64>(flag, value);
    } else if (flag == "--seconds") {
      cli.run.seconds = parse_number<double>(flag, value);
      if (!(cli.run.seconds > 0) || !std::isfinite(cli.run.seconds)) {
        usage_error("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace expects 0 or 1");
      cli.run.trace = value == "1";
    } else if (flag == "--trace-file") {
      cli.trace_file = value;
    } else if (flag == "--work-dir") {
      cli.run.work_dir = value;
    } else if (flag == "--schema") {
      cli.schema = value;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (cli.mode == Cli::Mode::kRun && !have_workload) {
    usage_error("--workload is required");
  }
  return cli;
}

/// Every catalogue name present and finite; end-to-end values positive.
std::vector<std::string> metric_problems(const mb::RunResult& r) {
  std::vector<std::string> problems;
  const auto check = [&](const std::vector<mb::MetricDef>& defs,
                         const mb::MetricValues& values, bool positive) {
    for (const auto& d : defs) {
      const auto it = values.find(d.name);
      if (it == values.end()) {
        problems.push_back(d.name + " missing");
      } else if (!std::isfinite(it->second) ||
                 (positive && !(it->second > 0))) {
        problems.push_back(d.name + " = " + std::to_string(it->second));
      }
    }
    if (values.size() != defs.size()) {
      problems.push_back("metrics outside the catalogue were produced");
    }
  };
  check(mb::end_to_end_metrics(), r.end_to_end, true);
  check(mb::per_layer_metrics(), r.per_layer, false);
  return problems;
}

void print_metrics(const std::vector<mb::MetricDef>& defs,
                   const mb::MetricValues& values) {
  for (const auto& d : defs) {
    std::printf("  %-36s %16.6g %s\n", d.name.c_str(), values.at(d.name),
                d.unit.c_str());
  }
}

json::Value result_line(const mb::RunResult& r, bool correct, bool traced) {
  const auto& defs =
      traced ? mb::per_layer_metrics() : mb::end_to_end_metrics();
  const auto& values = traced ? r.per_layer : r.end_to_end;
  json::Object metrics;
  for (const auto& d : defs) {
    metrics[d.name] =
        json::Object{{"value", values.at(d.name)}, {"unit", d.unit}};
  }
  return json::Object{{"correct", correct},
                      {"attempted", r.attempted},
                      {"failed", r.failed},
                      {"metrics", std::move(metrics)}};
}

fs::path default_trace_file(const mb::RunOptions& o) {
  return o.work_dir / "traces" /
         (o.workload + "-seed" + std::to_string(o.seed) + ".trace.json");
}

int run(const Cli& cli) {
  const mb::RunOptions& opts = cli.run;
  mb::Tracer tracer(opts.trace);
  mb::RunResult r = mb::run_workload(opts, tracer);

  std::printf("mlpo-benchmark %s seed %llu, %s run\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              opts.trace ? "traced" : "untraced");
  for (const auto& c : r.checks) {
    std::printf("  checksum %-8s %016llx  reference %016llx  "
                "(%llu iterations)%s\n",
                c.job.c_str(), static_cast<unsigned long long>(c.measured),
                static_cast<unsigned long long>(c.reference),
                static_cast<unsigned long long>(c.iterations),
                c.measured == c.reference ? "" : "  MISMATCH");
  }
  const auto problems = metric_problems(r);
  for (const auto& p : problems) {
    std::fprintf(stderr, "invalid metric: %s\n", p.c_str());
  }
  if (!problems.empty()) return 1;

  print_metrics(opts.trace ? mb::per_layer_metrics() : mb::end_to_end_metrics(),
                opts.trace ? r.per_layer : r.end_to_end);
  if (opts.trace) {
    const fs::path file = cli.trace_file.empty() ? default_trace_file(opts)
                                                 : fs::path(cli.trace_file);
    tracer.write_chrome(file, r.environment);
    r.environment["trace_file"] = file.string();
  }
  const json::Value env(json::Object{{"env", r.environment}});
  std::printf("%s\n", env.dump().c_str());
  const bool correct = r.checksums_match() && r.failed == 0;
  std::printf("%s\n", result_line(r, correct, opts.trace).dump().c_str());
  std::fflush(stdout);
  if (!r.checksums_match()) return kChecksumMismatch;
  return correct ? 0 : 1;
}

json::Value read_json(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream text;
  text << in.rdbuf();
  return json::parse(text.str());
}

/// Compare the catalogue with BENCHMARK.json's workload and metric lists.
std::vector<std::string> schema_problems(const std::string& path) {
  const json::Value doc = read_json(path);
  std::vector<std::string> problems;
  const auto compare = [&](const std::string& key,
                           const std::vector<mb::MetricDef>& defs) {
    std::set<std::pair<std::string, std::string>> listed, built;
    for (const auto& m : doc.at(key).as_array()) {
      listed.emplace(m.at("name").as_string(), m.at("unit").as_string());
    }
    for (const auto& d : defs) built.emplace(d.name, d.unit);
    for (const auto& [name, unit] : listed) {
      if (!built.count({name, unit})) {
        problems.push_back(key + ": " + name + " [" + unit + "] not produced");
      }
    }
    for (const auto& [name, unit] : built) {
      if (!listed.count({name, unit})) {
        problems.push_back(key + ": " + name + " [" + unit + "] not listed");
      }
    }
  };
  compare("end_to_end", mb::end_to_end_metrics());
  compare("per_layer", mb::per_layer_metrics());
  std::set<std::string> listed, built;
  for (const auto& w : doc.at("workloads").as_array()) {
    listed.insert(w.at("name").as_string());
  }
  for (const auto& w : mb::workloads()) built.insert(w.name);
  if (listed != built) {
    problems.push_back("workloads differ from " + known_workloads());
  }
  return problems;
}

/// Every workload for 3 measured iterations, traced, with the reference
/// check, the metric checks and a re-parse of the written trace.
int smoke(const Cli& cli) {
  std::vector<std::string> problems;
  try {
    if (!cli.schema.empty()) problems = schema_problems(cli.schema);
  } catch (const std::exception& e) {
    problems.push_back(cli.schema + ": " + e.what());
  }
  for (const auto& w : mb::workloads()) {
    mb::RunOptions opts = cli.run;
    opts.workload = w.name;
    opts.trace = true;
    opts.warmup = 0;
    opts.fixed_iterations = true;
    opts.min_iterations = 3;
    opts.setup_repeats = 1;
    opts.probe_seconds = 0.01;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::string> found;
    try {
      mb::Tracer tracer(true);
      const mb::RunResult r = mb::run_workload(opts, tracer);
      found = metric_problems(r);
      if (!r.checksums_match()) {
        found.push_back("state checksum differs from the reference");
      }
      if (r.failed != 0) {
        found.push_back(std::to_string(r.failed) + " I/O requests failed");
      }
      const fs::path file = default_trace_file(opts);
      tracer.write_chrome(file, r.environment);
      const json::Value trace = read_json(file);
      std::size_t iterations = 0;
      for (const auto& e : trace.at("traceEvents").as_array()) {
        if (e.at("name").as_string() == "run_iteration") ++iterations;
      }
      if (iterations < opts.min_iterations) {
        found.push_back("trace holds too few run_iteration spans");
      }
      fs::remove(file);
    } catch (const std::exception& e) {
      found.push_back(e.what());
    }
    const std::chrono::duration<double> secs =
        std::chrono::steady_clock::now() - start;
    std::printf("smoke %-12s %s (%.1f s)\n", w.name.c_str(),
                found.empty() ? "ok" : "FAILED", secs.count());
    for (const auto& p : found) problems.push_back(w.name + ": " + p);
  }
  for (const auto& p : problems) std::printf("  %s\n", p.c_str());
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena: with glibc's default of one per thread that happens
  // to allocate, peak RSS moved by ~10% between identical runs. Measured
  // on floor_mem, the iteration time is the same either way.
  mallopt(M_ARENA_MAX, 1);
  const Cli cli = parse_cli(argc, argv);
  try {
    switch (cli.mode) {
      case Cli::Mode::kList:
        for (const auto& w : mb::workloads()) {
          std::printf("%-12s %s\n", w.name.c_str(), w.why.c_str());
        }
        return 0;
      case Cli::Mode::kSmoke:
        return smoke(cli);
      case Cli::Mode::kRun:
        return run(cli);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mlpo-benchmark: %s\n", e.what());
  }
  return 1;
}
