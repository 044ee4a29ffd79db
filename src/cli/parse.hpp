// csmt::cli parsing primitives — the one place that knows how a knob is
// read from the environment or the command line.
//
// Conventions (established in the sweep/bench layers and kept repo-wide):
//   * malformed *environment* values warn and fall back to the default —
//     an exported shell variable must not brick every binary it reaches;
//   * malformed *flags* print what was wanted and exit 2 — the user typed
//     them for this invocation, so silently ignoring them runs the wrong
//     experiment.
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>

#include "common/assert.hpp"
#include "core/arch_config.hpp"

namespace csmt::cli {

/// Every CSMT_* environment variable a csmt binary reads. Any other CSMT_*
/// name in the environment draws warn_unknown_env's warning, so a stale
/// setting from an old script never looks like it took effect.
inline constexpr std::string_view kEnvNames[] = {
    "CSMT_SCALE", "CSMT_JOBS",    "CSMT_CACHE_DIR",     "CSMT_JSON",
    "CSMT_TRACE", "CSMT_NO_SKIP", "CSMT_SIMSPEED_JSON", "CSMT_SIMSPEED_LABEL"};

/// getenv for a name on kEnvNames (nullptr when unset); reading an unlisted
/// name aborts, so the list stays complete.
inline const char* env(const char* name) {
  CSMT_ASSERT_MSG(std::find(std::begin(kEnvNames), std::end(kEnvNames),
                            name) != std::end(kEnvNames),
                  "environment variable missing from cli::kEnvNames");
  return std::getenv(name);
}

/// Prints "csmt: ignoring unknown environment variable CSMT_X" on stderr
/// for each CSMT_* variable in the environment that is not on kEnvNames.
void warn_unknown_env();

/// Parses all of `s` as an unsigned integer; nullopt on any leftover text.
inline std::optional<std::uint64_t> parse_u64(const char* s) {
  if (!s || !*s) return std::nullopt;
  std::uint64_t v = 0;
  const char* end = s + std::strlen(s);
  const auto [p, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || p != end) return std::nullopt;
  return v;
}

/// Unsigned environment knob: unset/empty -> `fallback`; malformed or
/// outside [min, max] -> warn (quoting `want`) and `fallback`.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                             std::uint64_t min, std::uint64_t max,
                             const char* want) {
  const char* s = env(name);
  if (!s || !*s) return fallback;
  const auto v = parse_u64(s);
  if (!v || *v < min || *v > max) {
    std::fprintf(stderr, "csmt: ignoring invalid %s='%s' (want %s)\n", name,
                 s, want);
    return fallback;
  }
  return *v;
}

/// String environment knob: unset -> `fallback` (empty by default).
inline std::string env_string(const char* name, std::string fallback = {}) {
  const char* s = env(name);
  return s ? std::string(s) : fallback;
}

/// Boolean environment knob: unset -> false; "0" -> false; anything else
/// (including empty) -> true, matching the historical CSMT_NO_SKIP reading.
inline bool env_flag(const char* name) {
  const char* s = env(name);
  return s && std::strcmp(s, "0") != 0;
}

/// A binary's command line as its errors quote it: the binary's name and
/// its own flags, which the usage line lists ahead of the shared ones
/// (parse_options's).
struct Usage {
  const char* argv0;
  const char* own_flags = "";
  /// Prints "csmt: <why>" and then the usage line on stderr, and exits 2.
  [[noreturn]] void fail(const std::string& why) const;
};

/// Matches argv[i] against `flag` in both "--flag value" and "--flag=value"
/// forms; returns the value (advancing `i` past a separate value cell) or
/// nullptr when argv[i] is some other argument. A bare flag with nothing
/// after it fails `usage`.
inline const char* flag_value(int argc, char** argv, int& i, const char* flag,
                              const Usage& usage) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(argv[i], flag, n) != 0) return nullptr;
  if (argv[i][n] == '=') return argv[i] + n + 1;
  if (argv[i][n] != '\0') return nullptr;
  if (i + 1 == argc) usage.fail(std::string(flag) + " needs a value");
  return argv[++i];
}

/// An architecture named on a command line, in any case ("smt2", "FA1");
/// nullopt for anything core::arch_from_name does not know.
inline std::optional<core::ArchKind> arch_arg(std::string name) {
  for (char& c : name) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return core::arch_from_name(name);
}

/// Flag integer: malformed or outside [min, max] fails `usage`, quoting
/// `want`.
inline std::uint64_t flag_u64(const char* s, const char* flag,
                              std::uint64_t min, std::uint64_t max,
                              const char* want, const Usage& usage) {
  const auto v = parse_u64(s);
  if (!v || *v < min || *v > max)
    usage.fail(std::string(flag) + " wants " + want + ", got '" + s + "'");
  return *v;
}

}  // namespace csmt::cli
