#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace mlpo::benchmark {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) {
    MutexLock lock(mutex_);
    spans_.reserve(4096);
    counters_.reserve(4096);
  }
}

i64 Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

u64 Tracer::begin(std::string name, u64 parent, u32 lane,
                  const SimClock* clock) {
  if (!enabled_) return 0;
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = parent;
  rec.lane = lane;
  rec.vstart = clock != nullptr ? clock->now() : -1;
  rec.start_ns = now_ns();
  MutexLock lock(mutex_);
  rec.id = spans_.size() + 1;  // ids are 1-based indices into spans_
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::end(u64 id, const SimClock* clock) {
  if (id == 0) return;
  const i64 t = now_ns();
  const f64 v = clock != nullptr ? clock->now() : -1;
  MutexLock lock(mutex_);
  SpanRecord& rec = spans_.at(id - 1);
  rec.end_ns = t;
  rec.vend = v;
}

void Tracer::counter(std::string name, u32 lane,
                     std::vector<std::pair<std::string, f64>> values) {
  if (!enabled_) return;
  CounterRecord rec{std::move(name), lane, now_ns(), std::move(values)};
  MutexLock lock(mutex_);
  counters_.push_back(std::move(rec));
}

void Tracer::name_lane(u32 lane, std::string name) {
  if (!enabled_) return;
  MutexLock lock(mutex_);
  lanes_.emplace_back(lane, std::move(name));
}

f64 Tracer::total_seconds(const std::string& name) const {
  MutexLock lock(mutex_);
  i64 ns = 0;
  for (const auto& s : spans_) {
    if (s.end_ns >= 0 && s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<f64>(ns) * 1e-9;
}

void Tracer::write_chrome(const std::filesystem::path& path,
                          const json::Object& metadata) const {
  // Every event belongs to one process; lanes are its threads.
  const auto event = [](const std::string& name, const char* phase, u32 lane) {
    json::Object e;
    e["name"] = name;
    e["ph"] = phase;
    e["pid"] = 1;
    e["tid"] = static_cast<u64>(lane);
    return e;
  };
  json::Array events;
  MutexLock lock(mutex_);
  events.reserve(spans_.size() + counters_.size() + lanes_.size());
  for (const auto& [lane, name] : lanes_) {
    json::Object e = event("thread_name", "M", lane);
    json::Object args;
    args["name"] = name;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  for (const auto& s : spans_) {
    if (s.end_ns < 0) continue;  // never closed: the run threw mid-span
    json::Object e = event(s.name, "X", s.lane);
    // Chrome timestamps are microseconds; keep the nanosecond digits.
    e["ts"] = static_cast<f64>(s.start_ns) / 1e3;
    e["dur"] = static_cast<f64>(s.end_ns - s.start_ns) / 1e3;
    json::Object args;
    args["id"] = s.id;
    args["parent"] = s.parent;
    if (s.vstart >= 0) args["vstart_s"] = s.vstart;
    if (s.vend >= 0) args["vend_s"] = s.vend;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  for (const auto& c : counters_) {
    json::Object e = event(c.name, "C", c.lane);
    e["ts"] = static_cast<f64>(c.ts_ns) / 1e3;
    json::Object args;
    for (const auto& [key, value] : c.values) args[key] = value;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  json::Object doc;
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  doc["otherData"] = metadata;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  out << json::Value(std::move(doc)).dump() << '\n';
  if (!out) {
    throw std::runtime_error("trace: cannot write " + path.string());
  }
}

}  // namespace mlpo::benchmark
