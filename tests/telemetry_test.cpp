// PhaseTimer, IterationReport derived metrics, TablePrinter formatting.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "telemetry/iteration_report.hpp"
#include "telemetry/phase_timer.hpp"
#include "telemetry/table_printer.hpp"
#include "telemetry/trace_csv.hpp"

namespace mlpo {
namespace {

TEST(PhaseTimer, AccumulatesScopedTime) {
  SimClock clock(10000.0);
  PhaseTimer timer(clock);
  {
    PhaseTimer::Scope scope(timer, Phase::kForward);
    clock.sleep_for(5.0);
  }
  {
    PhaseTimer::Scope scope(timer, Phase::kUpdate);
    clock.sleep_for(10.0);
  }
  EXPECT_GE(timer.total(Phase::kForward), 4.5);
  EXPECT_GE(timer.total(Phase::kUpdate), 9.5);
  EXPECT_EQ(timer.total(Phase::kBackward), 0.0);
  EXPECT_GE(timer.iteration_total(), 14.0);
  timer.reset();
  EXPECT_EQ(timer.iteration_total(), 0.0);
}

TEST(PhaseTimer, PhaseNames) {
  EXPECT_STREQ(phase_name(Phase::kForward), "forward");
  EXPECT_STREQ(phase_name(Phase::kBackward), "backward");
  EXPECT_STREQ(phase_name(Phase::kUpdate), "update");
}

TEST(IterationReport, UpdateThroughputInMparams) {
  IterationReport r;
  r.params_updated = 500'000'000;
  r.update_seconds = 2.0;
  EXPECT_NEAR(r.update_throughput_mparams(), 250.0, 1e-9);
  r.update_seconds = 0;
  EXPECT_EQ(r.update_throughput_mparams(), 0.0);
}

TEST(IterationReport, EffectiveIoThroughputPaperFormula) {
  IterationReport r;
  SubgroupTrace t1{};
  t1.sim_bytes_read = 1000;
  t1.sim_bytes_written = 1000;
  t1.read_seconds = 1.0;
  t1.write_seconds = 1.0;  // 2000 B / 2 s = 1000 B/s
  SubgroupTrace t2{};
  t2.sim_bytes_read = 3000;
  t2.sim_bytes_written = 3000;
  t2.read_seconds = 1.0;
  t2.write_seconds = 2.0;  // 6000 / 3 = 2000 B/s
  SubgroupTrace hit{};     // cache hit: no I/O, excluded
  hit.host_cache_hit = true;
  r.traces = {t1, t2, hit};
  EXPECT_NEAR(r.effective_io_throughput(), 1500.0, 1e-9);
}

TEST(IterationReport, IoFraction) {
  IterationReport r;
  r.fetch_seconds = 90;
  r.flush_seconds = 9;
  r.update_compute_seconds = 1;
  EXPECT_NEAR(r.update_io_fraction(), 0.99, 1e-12);
}

TEST(IterationReport, AverageAcrossIterations) {
  IterationReport a;
  a.forward_seconds = 1;
  a.backward_seconds = 2;
  a.update_seconds = 10;
  a.params_updated = 100;
  a.host_cache_hits = 4;
  IterationReport b;
  b.forward_seconds = 3;
  b.backward_seconds = 4;
  b.update_seconds = 20;
  b.params_updated = 100;
  b.host_cache_hits = 6;
  const auto avg = average_reports({a, b});
  EXPECT_NEAR(avg.forward_seconds, 2.0, 1e-12);
  EXPECT_NEAR(avg.backward_seconds, 3.0, 1e-12);
  EXPECT_NEAR(avg.update_seconds, 15.0, 1e-12);
  EXPECT_EQ(avg.params_updated, 100u);
  EXPECT_EQ(avg.host_cache_hits, 5u);
  EXPECT_THROW(average_reports({}), std::invalid_argument);
}

TEST(IterationReport, GraphCountersFoldWithTheRightSemantics) {
  // accumulate_counters: the frontier is a high-water mark (max-merge),
  // steals and idle time are totals (additive). average_reports keeps the
  // max for the high-water mark and divides the additive ones by n.
  IterationReport a;
  a.graph_frontier_high_water = 6;
  a.graph_tasks_stolen = 10;
  a.graph_executor_idle_seconds = 0.25;
  IterationReport b;
  b.graph_frontier_high_water = 4;
  b.graph_tasks_stolen = 2;
  b.graph_executor_idle_seconds = 0.75;

  IterationReport sum = a;
  sum.accumulate_counters(b);
  EXPECT_EQ(sum.graph_frontier_high_water, 6u);
  EXPECT_EQ(sum.graph_tasks_stolen, 12u);
  EXPECT_NEAR(sum.graph_executor_idle_seconds, 1.0, 1e-12);

  const auto avg = average_reports({a, b});
  EXPECT_EQ(avg.graph_frontier_high_water, 6u);
  EXPECT_EQ(avg.graph_tasks_stolen, 6u);
  EXPECT_NEAR(avg.graph_executor_idle_seconds, 0.5, 1e-12);
}

TEST(IterationReport, SubgroupTraceThroughputs) {
  SubgroupTrace t{};
  t.sim_bytes_read = 4000;
  t.read_seconds = 2.0;
  t.sim_bytes_written = 1000;
  t.write_seconds = 0.5;
  EXPECT_NEAR(t.read_throughput(), 2000.0, 1e-9);
  EXPECT_NEAR(t.write_throughput(), 2000.0, 1e-9);
  SubgroupTrace idle{};
  EXPECT_EQ(idle.read_throughput(), 0.0);
}

TEST(IterationReport, TenantSlicesMergeByTenantId) {
  IterationReport a;
  TenantSlice s1;
  s1.tenant = 1;
  s1.iterations = 2;
  s1.iteration_seconds = 4.0;
  s1.max_iteration_seconds = 3.0;
  s1.deadline_hits = 1;
  s1.deadline_misses = 1;
  a.tenants.push_back(s1);

  IterationReport b;
  TenantSlice s1b;  // same tenant: additive fields sum, max takes max
  s1b.tenant = 1;
  s1b.iterations = 1;
  s1b.iteration_seconds = 5.0;
  s1b.max_iteration_seconds = 5.0;
  s1b.deadline_hits = 0;
  s1b.deadline_misses = 1;
  TenantSlice s2;  // unseen tenant: concatenated, not blended into s1
  s2.tenant = 2;
  s2.iterations = 7;
  s2.iteration_seconds = 7.0;
  s2.max_iteration_seconds = 1.5;
  b.tenants.push_back(s1b);
  b.tenants.push_back(s2);

  a.accumulate_counters(b);
  ASSERT_EQ(a.tenants.size(), 2u);
  const TenantSlice* m1 = a.tenant_slice(1);
  ASSERT_NE(m1, nullptr);
  EXPECT_EQ(m1->iterations, 3u);
  EXPECT_DOUBLE_EQ(m1->iteration_seconds, 9.0);
  EXPECT_DOUBLE_EQ(m1->max_iteration_seconds, 5.0);
  EXPECT_EQ(m1->deadline_hits, 1u);
  EXPECT_EQ(m1->deadline_misses, 2u);
  EXPECT_DOUBLE_EQ(m1->mean_iteration_seconds(), 3.0);
  EXPECT_DOUBLE_EQ(m1->deadline_hit_rate(), 1.0 / 3.0);
  const TenantSlice* m2 = a.tenant_slice(2);
  ASSERT_NE(m2, nullptr);
  EXPECT_EQ(m2->iterations, 7u);
  EXPECT_EQ(a.tenant_slice(3), nullptr);
}

TEST(IterationReport, AverageKeepsTenantSlicesAsTotals) {
  // average_reports divides the per-iteration counters by N, but tenant
  // slices are already totals over the window — dividing them again would
  // halve every job's iteration count.
  std::vector<IterationReport> reports(2);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    TenantSlice s;
    s.tenant = 1;
    s.iterations = 1;
    s.iteration_seconds = 2.0;
    s.max_iteration_seconds = 2.0;
    s.deadline_hits = 1;
    reports[i].tenants.push_back(s);
  }
  const IterationReport avg = average_reports(reports);
  const TenantSlice* slice = avg.tenant_slice(1);
  ASSERT_NE(slice, nullptr);
  EXPECT_EQ(slice->iterations, 2u);
  EXPECT_DOUBLE_EQ(slice->iteration_seconds, 4.0);
  EXPECT_DOUBLE_EQ(slice->max_iteration_seconds, 2.0);
  EXPECT_EQ(slice->deadline_hits, 2u);
  EXPECT_DOUBLE_EQ(slice->deadline_hit_rate(), 1.0);
}

TEST(TenantSlice, DerivedRatesHandleEmptyWindows) {
  TenantSlice s;
  EXPECT_DOUBLE_EQ(s.mean_iteration_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(s.deadline_hit_rate(), 1.0);  // no deadline = never missed
}

TEST(TablePrinter, AlignedOutput) {
  TablePrinter table({"Model", "Update (s)", "Speedup"});
  table.add_row({"40B", TablePrinter::num(242.3), "1.0x"});
  table.add_row({"120B", TablePrinter::num(550.4), "2.1x"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("Model"), std::string::npos);
  EXPECT_NE(out.find("242.3"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Every line of the aligned block ends without trailing blanks.
  for (std::size_t pos = 0; (pos = out.find(" \n", pos)) != std::string::npos;) {
    FAIL() << "trailing whitespace in table output";
  }
}

TEST(TablePrinter, CsvEscapesSpecials) {
  TablePrinter table({"name", "value"});
  table.add_row({"has,comma", "has\"quote"});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TablePrinter, ShortRowsPadded) {
  TablePrinter table({"a", "b", "c"});
  table.add_row({"only-one"});
  EXPECT_NO_THROW(table.to_string());
  EXPECT_NO_THROW(table.to_csv());
}

TEST(TablePrinter, NumberFormatHelpers) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(10, 0), "10");
  EXPECT_EQ(TablePrinter::pct(0.995), "99.5%");
}

TEST(TraceCsv, HeaderAndRows) {
  SubgroupTrace t1{};
  t1.subgroup_id = 5;
  t1.sim_bytes_read = 1000;
  t1.read_seconds = 0.5;
  SubgroupTrace t2{};
  t2.subgroup_id = 6;
  t2.host_cache_hit = true;
  const std::string csv = traces_to_csv({t1, t2});
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 22), "position,subgroup_id,c");
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 6), "0,5,0,");
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 6), "1,6,1,");
  EXPECT_FALSE(std::getline(in, line));
}

TEST(TraceCsv, WriteToFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mlpo_traces.csv").string();
  SubgroupTrace t{};
  t.subgroup_id = 1;
  write_traces_csv(path, {t});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("subgroup_id"), std::string::npos);
  std::filesystem::remove(path);
  EXPECT_THROW(write_traces_csv("/nonexistent-dir/x.csv", {t}),
               std::runtime_error);
}

}  // namespace
}  // namespace mlpo
