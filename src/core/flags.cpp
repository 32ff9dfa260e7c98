#include "core/flags.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace vdx::core {

namespace {

[[noreturn]] void fail(const std::string& key, const std::string& value,
                       const std::string& expected) {
  throw std::invalid_argument{"--" + key + " " + expected + " (got '" + value + "')"};
}

double parse_number(const std::string& key, const std::string& value) {
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::exception&) {
    fail(key, value, "needs a number");
  }
  if (consumed != value.size() || !std::isfinite(parsed)) {
    fail(key, value, "needs a finite number");
  }
  return parsed;
}

std::string repr(double value) {
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  std::ostringstream out;
  out << value;
  return out.str();
}

}  // namespace

Flags::Flags(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument{"expected --flag, got '" + key + "'"};
    }
    key = key.substr(2);
    if (key.empty()) throw std::invalid_argument{"empty flag name '--'"};
    // `--key=value` carries its value inline; the value may itself start
    // with `--` or be empty (an empty value reads as a bare switch).
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      if (eq == 0) {
        throw std::invalid_argument{"empty flag name '--" + key + "'"};
      }
      values_[key.substr(0, eq)] = key.substr(eq + 1);
      continue;
    }
    if (i + 1 >= argc || std::string{argv[i + 1]}.rfind("--", 0) == 0) {
      values_[key] = "";  // bare switch, e.g. --stream
    } else {
      values_[key] = argv[++i];
    }
  }
}

Flags::Flags(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  *this = Flags{static_cast<int>(argv.size()), argv.data(), 0};
}

const std::string* Flags::raw(const std::string& key) {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  used_.insert(key);
  return &it->second;
}

void Flags::note(const std::string& key, std::string kind,
                 std::string fallback) {
  if (!help_keys_.insert(key).second) return;
  help_.push_back({key, std::move(kind), std::move(fallback)});
}

double Flags::number(const std::string& key, double fallback) {
  note(key, "<number>", repr(fallback));
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  if (value->empty()) throw std::invalid_argument{"--" + key + " needs a value"};
  return parse_number(key, *value);
}

double Flags::positive(const std::string& key, double fallback) {
  note(key, "<number > 0>", repr(fallback));
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  if (value->empty()) throw std::invalid_argument{"--" + key + " needs a value"};
  const double parsed = parse_number(key, *value);
  if (parsed <= 0.0) fail(key, *value, "must be > 0");
  return parsed;
}

std::size_t Flags::count(const std::string& key, std::size_t fallback,
                         std::size_t minimum) {
  note(key, "<integer >= " + std::to_string(minimum) + ">",
       std::to_string(fallback));
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  if (value->empty()) throw std::invalid_argument{"--" + key + " needs a value"};
  // Integral values in scientific notation (`--sessions 1e6`) count too.
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(*value, &consumed);
  } catch (const std::exception&) {
    fail(key, *value, "needs an integer");
  }
  if (consumed != value->size() || parsed != std::floor(parsed) ||
      std::abs(parsed) > 0x1p53) {
    fail(key, *value, "needs an integer");
  }
  if (parsed < 0.0 || static_cast<std::size_t>(parsed) < minimum) {
    fail(key, *value, "must be an integer >= " + std::to_string(minimum));
  }
  return static_cast<std::size_t>(parsed);
}

bool Flags::boolean(const std::string& key) {
  note(key, "", "");
  const std::string* value = raw(key);
  if (value == nullptr) return false;
  return value->empty() || *value == "true" || *value == "1";
}

std::string Flags::text(const std::string& key, std::string fallback) {
  note(key, "<text>", fallback);
  const std::string* value = raw(key);
  return value == nullptr ? std::move(fallback) : *value;
}

std::string Flags::one_of(const std::string& key, std::string fallback,
                          const std::vector<std::string>& allowed) {
  std::string kind = "<";
  for (std::size_t i = 0; i < allowed.size(); ++i) {
    if (i > 0) kind += '|';
    kind += allowed[i];
  }
  kind += '>';
  note(key, std::move(kind), fallback);
  const std::string* value = raw(key);
  if (value == nullptr) return std::move(fallback);
  if (value->empty()) throw std::invalid_argument{"--" + key + " needs a value"};
  for (const std::string& candidate : allowed) {
    if (*value == candidate) return *value;
  }
  std::string expected = "must be one of ";
  for (std::size_t i = 0; i < allowed.size(); ++i) {
    if (i > 0) expected += '|';
    expected += allowed[i];
  }
  fail(key, *value, expected);
}

std::string Flags::existing_path(const std::string& key) {
  note(key, "<path>", "");
  const std::string* value = raw(key);
  if (value == nullptr) return "";
  if (value->empty()) throw std::invalid_argument{"--" + key + " needs a path"};
  if (!std::filesystem::exists(*value)) {
    throw std::invalid_argument{"--" + key + ": no such file or directory: '" +
                                *value + "'"};
  }
  return *value;
}

bool Flags::has(const std::string& key) const { return values_.contains(key); }

void Flags::check_all_used() const {
  for (const auto& [key, value] : values_) {
    if (!used_.contains(key)) {
      throw std::invalid_argument{"unknown flag --" + key};
    }
  }
}

void Flags::write_help(std::ostream& out) const {
  std::size_t width = 0;
  std::vector<std::string> heads;
  heads.reserve(help_.size());
  for (const HelpEntry& entry : help_) {
    std::string head = "--" + entry.key;
    if (!entry.kind.empty()) head += " " + entry.kind;
    width = std::max(width, head.size());
    heads.push_back(std::move(head));
  }
  for (std::size_t i = 0; i < help_.size(); ++i) {
    out << "  " << heads[i];
    if (!help_[i].fallback.empty()) {
      out << std::string(width - heads[i].size() + 2, ' ')
          << "default: " << help_[i].fallback;
    }
    out << '\n';
  }
}

}  // namespace vdx::core
