// Minimal command-line/environment option parsing for the examples and
// benches: `--key=value` / `--key value` / `--flag`, with environment
// variable fallbacks so `for b in build/bench/*; do $b; done` can be steered
// globally (e.g. MECRA_TRIALS=100). Each driver names the keys it reads: a
// misspelt flag fails instead of silently running the default
// configuration, and `--help` lists the keys.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mecra::util {

class CliArgs {
 public:
  /// `keys` are the option names the driver reads (without "--").
  /// `--help` prints them and exits 0; any other `--key` outside them
  /// prints them to stderr and exits 2. Reading a key outside them is a
  /// CheckFailure.
  CliArgs(int argc, const char* const* argv, std::vector<std::string> keys);

  /// The program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  /// Positional (non --key) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& key) const;

  /// Option lookup order: --key on the command line, then environment
  /// variable `env` (if non-empty), then `fallback`.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback,
                                const std::string& env = "") const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback,
                                     const std::string& env = "") const;
  [[nodiscard]] double get_double(const std::string& key, double fallback,
                                  const std::string& env = "") const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback,
                              const std::string& env = "") const;

 private:
  [[nodiscard]] bool accepts(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> raw(const std::string& key,
                                               const std::string& env) const;

  std::string program_;
  std::vector<std::string> keys_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace mecra::util
