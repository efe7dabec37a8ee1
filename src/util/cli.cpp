#include "util/cli.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "util/check.h"

namespace mecra::util {

namespace {

void print_keys(std::ostream& os, const std::string& program,
                const std::vector<std::string>& keys) {
  os << "usage: " << program << " [--key=value | --key value | --flag]...\n"
     << "options:";
  for (const std::string& key : keys) os << " --" << key;
  os << "\n";
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::vector<std::string> keys)
    : keys_(std::move(keys)) {
  MECRA_CHECK(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "true";  // bare flag
    }
  }
  if (options_.count("help") != 0) {
    print_keys(std::cout, program_, keys_);
    std::exit(0);
  }
  for (const auto& [key, value] : options_) {
    if (accepts(key)) continue;
    std::cerr << program_ << ": unknown option --" << key << "\n";
    print_keys(std::cerr, program_, keys_);
    std::exit(2);
  }
}

bool CliArgs::accepts(const std::string& key) const {
  return std::find(keys_.begin(), keys_.end(), key) != keys_.end();
}

bool CliArgs::has(const std::string& key) const {
  MECRA_CHECK_MSG(accepts(key), "option --" + key + " is read but not declared");
  return options_.count(key) != 0;
}

std::optional<std::string> CliArgs::raw(const std::string& key,
                                        const std::string& env) const {
  MECRA_CHECK_MSG(accepts(key), "option --" + key + " is read but not declared");
  if (auto it = options_.find(key); it != options_.end()) return it->second;
  if (!env.empty()) {
    if (const char* v = std::getenv(env.c_str()); v != nullptr) {
      return std::string(v);
    }
  }
  return std::nullopt;
}

std::string CliArgs::get(const std::string& key, const std::string& fallback,
                         const std::string& env) const {
  return raw(key, env).value_or(fallback);
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t fallback,
                              const std::string& env) const {
  auto v = raw(key, env);
  if (!v) return fallback;
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    throw CheckFailure("option --" + key + " expects an integer, got: " + *v);
  }
}

double CliArgs::get_double(const std::string& key, double fallback,
                           const std::string& env) const {
  auto v = raw(key, env);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw CheckFailure("option --" + key + " expects a number, got: " + *v);
  }
}

bool CliArgs::get_bool(const std::string& key, bool fallback,
                       const std::string& env) const {
  auto v = raw(key, env);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw CheckFailure("option --" + key + " expects a boolean, got: " + *v);
}

}  // namespace mecra::util
