// CosmoTools configuration: typed parameter maps and the sectioned config
// file the simulation's input deck points at (§3, "that file has all the
// details about the separate analysis tools, at which time steps to run
// them, and which parameters to use for each").
//
// Format:  "[section]" headers, "key value" lines, '#' comments.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <istream>
#include <map>
#include <sstream>
#include <string>
#include <system_error>

#include "util/error.h"

namespace cosmo::core {

/// String-keyed parameters with checked typed access.
class ParameterMap {
 public:
  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  std::string get_string(const std::string& key) const {
    auto it = values_.find(key);
    COSMO_REQUIRE(it != values_.end(), "missing parameter: " + key);
    return it->second;
  }

  std::string get_string(const std::string& key,
                         const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// A finite number, parsed whole: "0.25abc" and "inf" throw.
  double get_double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    double v = 0.0;
    if (!parse_whole(it->second, v) || !std::isfinite(v))
      throw Error("parameter '" + key + "' is not a finite number: " +
                  it->second);
    return v;
  }

  /// A count: decimal digits only, parsed whole. "-1" throws rather than
  /// wrapping to SIZE_MAX, and "40x" and "1e3" throw rather than reading
  /// as 40 and 1.
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::size_t v = 0;
    if (!parse_whole(it->second, v))
      throw Error("parameter '" + key + "' is not a count: " + it->second);
    return v;
  }

  bool get_bool(const std::string& key, bool fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
    if (v == "false" || v == "0" || v == "no" || v == "off") return false;
    throw Error("parameter '" + key + "' is not a boolean: " + v);
  }

  std::size_t size() const { return values_.size(); }

 private:
  /// std::from_chars over the whole text; an unsigned T accepts no sign.
  template <typename T>
  static bool parse_whole(const std::string& text, T& out) {
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, out);
    return ec == std::errc{} && end == last;
  }

  std::map<std::string, std::string> values_;
};

/// The parsed CosmoTools configuration: one ParameterMap per tool section.
class CosmoToolsConfig {
 public:
  /// Parses the sectioned key-value format. Lines before any section header
  /// go into the "" (global) section.
  static CosmoToolsConfig parse(std::istream& in) {
    CosmoToolsConfig cfg;
    std::string line, section;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::istringstream ls(line);
      std::string first;
      if (!(ls >> first)) continue;  // blank
      if (first.front() == '[') {
        COSMO_REQUIRE(first.back() == ']',
                      "malformed section header at line " +
                          std::to_string(lineno) + ": " + first);
        section = first.substr(1, first.size() - 2);
        continue;
      }
      std::string value;
      std::getline(ls, value);
      const auto start = value.find_first_not_of(" \t");
      COSMO_REQUIRE(start != std::string::npos,
                    "parameter without value at line " +
                        std::to_string(lineno) + ": " + first);
      const auto end = value.find_last_not_of(" \t");
      cfg.sections_[section].set(first, value.substr(start, end - start + 1));
    }
    return cfg;
  }

  static CosmoToolsConfig parse(const std::string& text) {
    std::istringstream in(text);
    return parse(in);
  }

  bool has_section(const std::string& name) const {
    return sections_.count(name) != 0;
  }

  const ParameterMap& section(const std::string& name) const {
    static const ParameterMap empty;
    auto it = sections_.find(name);
    return it == sections_.end() ? empty : it->second;
  }

 private:
  std::map<std::string, ParameterMap> sections_;
};

}  // namespace cosmo::core
