#include "telemetry/table_printer.hpp"

#include <algorithm>
#include <cstdio>

namespace mlpo {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::num(f64 value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TablePrinter::pct(f64 fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string TablePrinter::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::string out;
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out += cells[c];
      out.append(widths[c] - cells[c].size() + 2, ' ');
    }
    // Trim trailing spaces for clean diffs.
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out += '\n';
  };

  emit_row(headers_);
  std::size_t rule = 0;
  for (const std::size_t w : widths) rule += w + 2;
  out.append(rule - 2, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

void TablePrinter::print() const { std::fputs(to_string().c_str(), stdout); }

}  // namespace mlpo
