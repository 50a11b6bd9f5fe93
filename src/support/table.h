#pragma once

/// \file table.h
/// Plain-text table rendering for the benchmark binaries that regenerate the
/// paper's tables (Table IV, Table V, ...). Columns are auto-sized; the first
/// row added is treated as the header.

#include <string>
#include <vector>

namespace posetrl {

/// Accumulates rows of strings and renders them as an aligned ASCII table.
class TextTable {
 public:
  /// Adds a row; the first row becomes the header.
  void addRow(std::vector<std::string> cells);

  /// Renders the table (header, separator, body) to a string.
  std::string render() const;


 private:
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace posetrl
