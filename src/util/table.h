// Plain-text table formatting for the bench harness.
//
// Every bench binary that regenerates one of the paper's tables/figures
// prints through this so the output is aligned and diff-friendly.
#pragma once

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.h"

namespace cosmo {

/// Column-aligned ASCII table with a header row.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header)
      : header_(std::move(header)) {}

  /// Adds one row; must match the header's column count.
  void add_row(std::vector<std::string> row) {
    COSMO_REQUIRE(row.size() == header_.size(), "row/header size mismatch");
    rows_.push_back(std::move(row));
  }

  /// Formats a double with the given precision (helper for row building).
  static std::string num(double v, int precision = 2) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
  }

  void print(std::ostream& os) const {
    std::vector<std::size_t> w(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c) w[c] = header_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size(); ++c)
        if (r[c].size() > w[c]) w[c] = r[c].size();

    auto line = [&](const std::vector<std::string>& r) {
      os << "|";
      for (std::size_t c = 0; c < r.size(); ++c)
        os << " " << std::left << std::setw(static_cast<int>(w[c])) << r[c]
           << " |";
      os << "\n";
    };
    auto rule = [&]() {
      os << "+";
      for (auto width : w) os << std::string(width + 2, '-') << "+";
      os << "\n";
    };

    rule();
    line(header_);
    rule();
    for (const auto& r : rows_) line(r);
    rule();
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cosmo
