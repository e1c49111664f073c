#include "src/guestos/console.h"

#include <cstdio>
#include <sstream>

namespace lupine::guestos {

void Console::Write(std::string_view text) {
  contents_ += text;
  if (echo_) {
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
}

std::vector<std::string> Console::Lines() const {
  std::vector<std::string> lines;
  std::istringstream in(contents_);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

}  // namespace lupine::guestos
