#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace vdm::util {

/// Parses the whole of `text` as a `T` (base-10 integer, or a decimal double)
/// for the option `--name`. An empty string, trailing characters ("12x") or
/// an out-of-range value throw std::invalid_argument naming the option, so
/// a typo never runs silently with a numeric prefix.
template <typename T>
T parse_flag_value(const std::string& name, const std::string& text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("bad value '" + text + "' for --" + name);
  }
  return value;
}

/// Minimal command-line flag parser for example and bench binaries.
///
/// Accepts `--name=value`, `--name value`, and bare `--name` (boolean true).
/// Values not supplied on the command line fall back to an environment
/// variable `VDM_<NAME>` (uppercased, dashes to underscores), then to the
/// caller's default. This lets the paper-scale knobs (seeds, node counts)
/// be raised fleet-wide with env vars without editing every invocation.
/// get_int/get_double reject a present value that does not parse whole
/// (see parse_flag_value).
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The shared `main` of the example and bench programs: returns
/// body(Flags(argc, argv)). A std::invalid_argument escaping `body` (a
/// malformed option value, see parse_flag_value) prints one usage line and
/// returns 2; any other exception prints `<prog>: fatal: <what>` and returns
/// 1. Either way the program exits with a message, never an abort.
int run_main(int argc, const char* const* argv, int (*body)(const Flags&));

}  // namespace vdm::util
