#include "src/util/table.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace lupine {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRowVec(std::vector<std::string> row) {
  row.resize(headers_.size());
  rows_.push_back(std::move(row));
}

std::string Table::Cell(double v) {
  char buf[64];
  double av = std::fabs(v);
  if (v == static_cast<long long>(v) && av < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else if (av >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  } else if (av >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4f", v);
  }
  return buf;
}

std::string Table::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : "  ");
      out << row[c];
      out << std::string(widths[c] - row[c].size(), ' ');
    }
    out << "\n";
  };
  emit_row(headers_);
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 2;
  }
  out << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

void Table::Print(std::FILE* out) const { std::fputs(ToString().c_str(), out); }

void PrintBanner(const std::string& title, std::FILE* out) {
  std::fprintf(out, "\n== %s ==\n", title.c_str());
}

}  // namespace lupine
