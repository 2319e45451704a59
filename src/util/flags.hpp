#ifndef SOFIA_UTIL_FLAGS_H_
#define SOFIA_UTIL_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

/// \file flags.hpp
/// \brief Minimal `--name=value` command-line flag parsing for benches and
/// examples. Unknown flags are kept, and every name a caller reads is
/// recorded, so a program that has read all its flags can reject the rest.

namespace sofia {

/// Parses `--name=value` (and bare `--name`, stored as "true") arguments.
class Flags {
 public:
  Flags() = default;
  Flags(int argc, char** argv);

  /// True if the flag was present on the command line.
  bool Has(const std::string& name) const;

  /// Typed getters returning `def` when the flag is absent.
  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// Flags given on the command line that no Has or getter call has read
  /// yet, in name order.
  std::vector<std::string> Unread() const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// The value of `name`, or nullptr when absent; records the read.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;  ///< Names asked for so far.
};

/// For a program that has read all its flags: prints each unread flag to
/// stderr, prefixed with `program`, and returns how many there were. The
/// caller exits non-zero when this is not 0, so a misspelled or retired
/// flag fails instead of silently running the defaults.
size_t ReportUnreadFlags(const Flags& flags, const char* program);

}  // namespace sofia

#endif  // SOFIA_UTIL_FLAGS_H_
