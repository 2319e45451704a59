#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace sofia {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> row) {
  SOFIA_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::ToString() const {
  std::vector<size_t> width(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << row[c] << std::string(width[c] - row[c].size(), ' ');
      if (c + 1 < row.size()) out << "  ";
    }
    out << "\n";
  };
  emit(header_);
  size_t total = 0;
  for (size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
  out << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string Table::ToCsv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << row[c];
      if (c + 1 < row.size()) out << ",";
    }
    out << "\n";
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

bool Table::WriteCsv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << ToCsv();
  return static_cast<bool>(f);
}

std::string Table::Num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

std::string Table::Fixed(double v, int decimals) {
  char buf[512];  // %f of a finite double needs at most ~310 digits.
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace sofia
