// Console table / CSV rendering for bench binaries.
//
// Every bench prints the same rows/series the paper's table or figure
// reports, first as an aligned console table and optionally as CSV (for
// re-plotting).
#ifndef SRC_UTIL_TABLE_H_
#define SRC_UTIL_TABLE_H_

#include <cstdio>
#include <string>
#include <vector>

namespace lupine {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Variadic row helper: accepts strings and arithmetic values.
  template <typename... Args>
  void AddRow(const Args&... args) {
    std::vector<std::string> row;
    row.reserve(sizeof...(args));
    (row.push_back(Cell(args)), ...);
    AddRowVec(std::move(row));
  }

  void AddRowVec(std::vector<std::string> row);

  // Renders to `out` (defaults to stdout).
  void Print(std::FILE* out = stdout) const;

  std::string ToString() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  static std::string Cell(const std::string& s) { return s; }
  static std::string Cell(const char* s) { return s; }
  static std::string Cell(double v);
  static std::string Cell(int v) { return std::to_string(v); }
  static std::string Cell(long v) { return std::to_string(v); }
  static std::string Cell(long long v) { return std::to_string(v); }
  static std::string Cell(unsigned v) { return std::to_string(v); }
  static std::string Cell(unsigned long v) { return std::to_string(v); }
  static std::string Cell(unsigned long long v) { return std::to_string(v); }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a figure/table banner ("== Figure 7: Boot time (hello world) ==").
void PrintBanner(const std::string& title, std::FILE* out = stdout);

}  // namespace lupine

#endif  // SRC_UTIL_TABLE_H_
