#include "util/tableio.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace laps {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table: row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += "| ";
      out += row[c];
      out.append(width[c] - row[c].size() + 1, ' ');
    }
    out += "|\n";
  };
  std::string out;
  emit_row(headers_, out);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += "|";
    out.append(width[c] + 2, '-');
  }
  out += "|\n";
  for (const auto& row : rows_) emit_row(row, out);
  return out;
}

std::string Table::num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string Table::num(std::int64_t v) {
  char digits[32];
  std::snprintf(digits, sizeof digits, "%lld", static_cast<long long>(v));
  std::string raw = digits;
  const bool neg = !raw.empty() && raw[0] == '-';
  std::string body = neg ? raw.substr(1) : raw;
  std::string out;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (i > 0 && (body.size() - i) % 3 == 0) out += ',';
    out += body[i];
  }
  return neg ? "-" + out : out;
}

std::string Table::pct(double ratio, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", digits, ratio * 100.0);
  return buf;
}

}  // namespace laps
