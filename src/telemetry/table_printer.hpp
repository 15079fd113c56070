// Fixed-width console table for bench harnesses, so every figure/table
// binary prints the same row/series format the paper reports.
#pragma once

#include <string>
#include <vector>

#include "util/common.hpp"

namespace mlpo {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Append a row (converts numbers with sensible precision).
  void add_row(std::vector<std::string> cells);

  /// Helpers for mixed-type rows.
  static std::string num(f64 value, int precision = 1);
  static std::string pct(f64 fraction, int precision = 1);

  /// Render with column auto-sizing and a header rule.
  std::string to_string() const;

  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mlpo
