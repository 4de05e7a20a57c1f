// Paper-style table rendering for the bench harnesses.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace atcsim::metrics {

/// Aligned-column text table.
class Table {
 public:
  Table(std::string title, std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision double formatting ("0.153").
std::string fmt(double v, int precision = 3);
/// `num / den` formatted like fmt(), or "n/a" when either operand is not
/// positive (e.g. a cell that completed no superstep in its window).
std::string fmt_ratio(double num, double den, int precision = 3);
/// SimTime-in-milliseconds formatting ("0.3ms").
std::string fmt_ms(double ms);

}  // namespace atcsim::metrics
