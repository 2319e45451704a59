#ifndef SOFIA_UTIL_TABLE_H_
#define SOFIA_UTIL_TABLE_H_

#include <string>
#include <vector>

/// \file table.hpp
/// \brief Aligned console tables and CSV emission for benchmark output.
///
/// Every bench binary prints one aligned table per paper figure/table so the
/// output can be compared line-by-line with the paper, and optionally mirrors
/// the rows to a CSV file for plotting.

namespace sofia {

/// Accumulates rows of strings and renders them column-aligned.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append one row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Render with padded columns, a header rule, and two-space gutters.
  std::string ToString() const;

  /// Comma-separated rendering (header first).
  std::string ToCsv() const;

  /// Write ToCsv() to `path`; returns false on I/O failure.
  bool WriteCsv(const std::string& path) const;

  /// Format a double with `digits` significant digits (helper for rows).
  static std::string Num(double v, int digits = 4);

  /// Format a double with exactly `decimals` digits after the point, never
  /// in exponent form (90.26 -> "90.3" at 1 decimal).
  static std::string Fixed(double v, int decimals);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sofia

#endif  // SOFIA_UTIL_TABLE_H_
