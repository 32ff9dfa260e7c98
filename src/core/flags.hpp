// Validated `--flag value` / `--flag=value` command-line parsing, shared by
// the CLI tools.
//
// The parser is strict where silent misreads would corrupt a run: unknown
// flags, non-numeric values, out-of-range counts, and nonexistent paths all
// throw std::invalid_argument with a one-line message naming the flag and
// the offending value. Flags may appear in any order; a flag followed by
// another flag (or the end of the line) is a bare switch, read with
// boolean(). Accessors record which flags they consumed so check_all_used()
// can reject typos loudly instead of ignoring them.
//
// Accessors also record a help entry (flag name, value kind, default), so a
// tool can print a generated `--help` listing by running its accessor
// sequence over an empty Flags instance and calling write_help().
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace vdx::core {

class Flags {
 public:
  /// Parses argv[first..argc). Throws on anything that is not `--flag`,
  /// `--flag=value`, or a value following a `--flag`.
  Flags(int argc, const char* const* argv, int first);
  /// Test-friendly constructor over pre-split arguments.
  explicit Flags(const std::vector<std::string>& args);

  /// Finite number; `fallback` when the flag is absent.
  [[nodiscard]] double number(const std::string& key, double fallback);
  /// Finite number that must be strictly positive *when given explicitly*;
  /// `fallback` (which may be a 0 sentinel) when absent.
  [[nodiscard]] double positive(const std::string& key, double fallback);
  /// Non-negative integer, plain or in integral scientific notation (1e6);
  /// an explicit value below `minimum` is rejected. `fallback` is returned
  /// as-is when the flag is absent.
  [[nodiscard]] std::size_t count(const std::string& key, std::size_t fallback,
                                  std::size_t minimum = 0);
  /// Bare switch (`--stream`) or explicit true/1.
  [[nodiscard]] bool boolean(const std::string& key);
  [[nodiscard]] std::string text(const std::string& key, std::string fallback);
  /// Value restricted to an allow-list; `fallback` when absent (fallback is
  /// trusted, not re-validated). Rejects anything else with a one-line
  /// error listing the accepted values.
  [[nodiscard]] std::string one_of(const std::string& key, std::string fallback,
                                   const std::vector<std::string>& allowed);
  /// Filesystem path that must exist when the flag is given; "" when absent.
  [[nodiscard]] std::string existing_path(const std::string& key);

  /// Whether the flag was given at all (does not mark it used).
  [[nodiscard]] bool has(const std::string& key) const;
  /// Throws for any flag no accessor consumed (typo'd or misplaced flags
  /// must not be silently ignored).
  void check_all_used() const;

  /// One line per flag an accessor declared, in first-declaration order:
  /// `  --key <kind>   default: ...`. Run the tool's accessor sequence over
  /// an empty Flags first so every flag is declared.
  void write_help(std::ostream& out) const;

 private:
  [[nodiscard]] const std::string* raw(const std::string& key);
  void note(const std::string& key, std::string kind, std::string fallback);

  std::map<std::string, std::string> values_;
  std::set<std::string> used_;

  struct HelpEntry {
    std::string key;
    std::string kind;      // e.g. "<number>", "<a|b>", "" for a switch
    std::string fallback;  // printable default, "" when none
  };
  std::vector<HelpEntry> help_;
  std::set<std::string> help_keys_;
};

}  // namespace vdx::core
