#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace laps {

/// Fixed-width ASCII table builder for experiment output.
///
/// Every bench binary prints its figure/table through this class so results
/// are uniformly formatted and machine-parsable. Example:
///
///   Table t({"scenario", "scheduler", "drop%"});
///   t.add_row({"T1", "LAPS", Table::num(0.12, 2)});
///   std::cout << t.to_string();
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds one row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows.
  std::size_t rows() const { return rows_.size(); }

  /// Column headers (for structured export, e.g. JSON artifacts).
  const std::vector<std::string>& headers() const { return headers_; }

  /// Raw row cells in insertion order.
  const std::vector<std::vector<std::string>>& data() const { return rows_; }

  /// Renders as an aligned ASCII table with a header separator.
  std::string to_string() const;

  /// Formats a double with `digits` decimal places.
  static std::string num(double v, int digits = 3);
  /// Formats an integer with thousands separators ("1,234,567").
  static std::string num(std::int64_t v);
  /// Formats a ratio as a percentage string with `digits` decimals.
  static std::string pct(double ratio, int digits = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace laps
