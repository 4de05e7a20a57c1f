#include "metrics/report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace atcsim::metrics {

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) width[c] = std::max(width[c], row[c].size());
  }
  os << "== " << title_ << " ==\n";
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      for (std::size_t pad = cells[c].size(); pad < width[c] + 2; ++pad) {
        os << ' ';
      }
    }
    os << '\n';
  };
  line(headers_);
  std::size_t total = headers_.size() * 2;
  for (auto w : width) total += w;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) line(row);
  os << '\n';
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_ratio(double num, double den, int precision) {
  return num > 0 && den > 0 ? fmt(num / den, precision) : "n/a";
}

std::string fmt_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%gms", ms);
  return buf;
}

}  // namespace atcsim::metrics
