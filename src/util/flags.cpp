#include "util/flags.hpp"

#include <cstdio>
#include <cstdlib>

namespace sofia {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

const std::string* Flags::Find(const std::string& name) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  const std::string* value = Find(name);
  return value == nullptr ? def : *value;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const std::string* value = Find(name);
  return value == nullptr ? def : std::strtoll(value->c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double def) const {
  const std::string* value = Find(name);
  return value == nullptr ? def : std::strtod(value->c_str(), nullptr);
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  return *value == "true" || *value == "1" || *value == "yes";
}

std::vector<std::string> Flags::Unread() const {
  std::vector<std::string> unread;
  for (const auto& entry : values_) {
    if (read_.count(entry.first) == 0) unread.push_back(entry.first);
  }
  return unread;
}

size_t ReportUnreadFlags(const Flags& flags, const char* program) {
  const std::vector<std::string> unread = flags.Unread();
  for (const std::string& name : unread) {
    std::fprintf(stderr, "%s: unknown flag --%s\n", program, name.c_str());
  }
  return unread.size();
}

}  // namespace sofia
