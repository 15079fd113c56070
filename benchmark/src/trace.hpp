// In-memory span and counter recorder for the benchmark's traced runs.
//
// Spans wrap the calls the benchmark makes into the library (construct,
// initialize, run_iteration, counter snapshots, kernel probes, the reference
// run); counters carry the layer readings taken at iteration boundaries.
// Nothing is written until the run ends, when write_chrome() emits Chrome
// trace-event JSON that Perfetto (https://ui.perfetto.dev) and
// chrome://tracing load directly.
#pragma once

#include <chrono>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "util/common.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/sim_clock.hpp"

namespace mlpo::benchmark {

class Tracer {
 public:
  /// A disabled tracer records nothing; begin() returns span id 0.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Open a span on `lane` (one Perfetto track per lane) caused by span
  /// `parent` (0 = none). `clock`, when given, stamps the virtual start.
  u64 begin(std::string name, u64 parent, u32 lane, const SimClock* clock);
  /// Close span `id`; `clock`, when given, stamps the virtual end.
  void end(u64 id, const SimClock* clock);

  /// Record one reading of a counter track (name + lane identify it).
  void counter(std::string name, u32 lane,
               std::vector<std::pair<std::string, f64>> values);

  void name_lane(u32 lane, std::string name);

  /// Real seconds between begin and end of every closed span named `name`.
  f64 total_seconds(const std::string& name) const;

  /// Write the Chrome trace-event JSON document. `metadata` (the run's
  /// environment) lands under the format's free-form "otherData" key.
  void write_chrome(const std::filesystem::path& path,
                    const json::Object& metadata) const;

 private:
  struct SpanRecord {
    std::string name;
    u64 id = 0;
    u64 parent = 0;
    u32 lane = 0;
    i64 start_ns = 0;
    i64 end_ns = -1;
    f64 vstart = -1;  ///< virtual seconds; < 0 when no clock applies
    f64 vend = -1;
  };
  struct CounterRecord {
    std::string name;
    u32 lane = 0;
    i64 ts_ns = 0;
    std::vector<std::pair<std::string, f64>> values;
  };

  i64 now_ns() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable Mutex mutex_;
  std::vector<SpanRecord> spans_ MLPO_GUARDED_BY(mutex_);
  std::vector<CounterRecord> counters_ MLPO_GUARDED_BY(mutex_);
  std::vector<std::pair<u32, std::string>> lanes_ MLPO_GUARDED_BY(mutex_);
};

/// RAII span: begins on construction, ends on destruction. `clock` must
/// outlive the span.
class Span {
 public:
  Span(Tracer& tracer, std::string name, u64 parent, u32 lane,
       const SimClock* clock = nullptr)
      : tracer_(&tracer),
        clock_(clock),
        id_(tracer.begin(std::move(name), parent, lane, clock)) {}
  ~Span() { tracer_->end(id_, clock_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  u64 id() const { return id_; }

 private:
  Tracer* tracer_;
  const SimClock* const clock_;
  const u64 id_;
};

}  // namespace mlpo::benchmark
