// The guest console (serial output).
//
// Application startup failures land here (e.g. "epoll_create1 failed:
// function not implemented"), and the automatic configuration search in
// src/core/config_search.* greps this text exactly the way the paper's
// authors read boot logs (Section 4.1).
#ifndef SRC_GUESTOS_CONSOLE_H_
#define SRC_GUESTOS_CONSOLE_H_

#include <string>
#include <string_view>
#include <vector>

namespace lupine::guestos {

class Console {
 public:
  void Write(std::string_view text);

  const std::string& contents() const { return contents_; }
  std::vector<std::string> Lines() const;
  bool Contains(const std::string& needle) const {
    return contents_.find(needle) != std::string::npos;
  }
  void Clear() { contents_.clear(); }

  // When set, console writes are mirrored to the host's stderr (useful in
  // examples and when debugging tests).
  void set_echo(bool echo) { echo_ = echo; }

 private:
  std::string contents_;
  bool echo_ = false;
};

}  // namespace lupine::guestos

#endif  // SRC_GUESTOS_CONSOLE_H_
