#include "util/flags.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <exception>
#include <iostream>

namespace vdm::util {

namespace {

std::string env_name(const std::string& flag) {
  std::string out = "VDM_";
  for (char ch : flag) {
    out += (ch == '-') ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  return out;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  if (values_.count(name)) return true;
  return std::getenv(env_name(name).c_str()) != nullptr;
}

std::string Flags::get(const std::string& name, const std::string& def) const {
  const auto it = values_.find(name);
  if (it != values_.end()) return it->second;
  if (const char* env = std::getenv(env_name(name).c_str())) return env;
  return def;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  if (!has(name)) return def;
  return parse_flag_value<std::int64_t>(name, get(name, ""));
}

double Flags::get_double(const std::string& name, double def) const {
  if (!has(name)) return def;
  return parse_flag_value<double>(name, get(name, ""));
}

bool Flags::get_bool(const std::string& name, bool def) const {
  std::string v = get(name, "");
  if (v.empty()) return def;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

int run_main(int argc, const char* const* argv, int (*body)(const Flags&)) {
  std::string prog = argc > 0 ? argv[0] : "vdm";
  prog.erase(0, prog.find_last_of('/') + 1);
  try {
    return body(Flags(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::cerr << prog << ": " << e.what() << " (usage: " << prog
              << " [--option value]...)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << prog << ": fatal: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace vdm::util
