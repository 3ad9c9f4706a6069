#include "flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/parse.h"

namespace asyncgossip::cli {
namespace {

constexpr std::size_t kHelpColumn = 26;  // where help text starts
constexpr std::size_t kHelpWidth = 80;

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : sep) + p;
  return out;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

bool parse_double(const std::string& s, double* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

std::string range(const Flag& f) {
  if (std::isfinite(f.min) && std::isfinite(f.max))
    return "in [" + number(f.min) + ", " + number(f.max) + "]";
  if (std::isfinite(f.min)) return ">= " + number(f.min);
  return "";
}

bool in_range(const Flag& f, double v) { return v >= f.min && v <= f.max; }

std::string metavar(const Flag& f) {
  if (std::holds_alternative<bool*>(f.field)) return "";
  if (std::holds_alternative<std::uint64_t*>(f.field)) return "N";
  if (std::holds_alternative<double*>(f.field)) return "X";
  if (std::holds_alternative<std::vector<std::uint64_t>*>(f.field))
    return "N,N,...";
  return f.choices.empty() ? "PATH" : "NAME";
}

/// Writes `text` through the row's field; returns "" or what is wrong.
std::string assign(const Flag& f, const std::string& text) {
  const std::string quoted = "'" + text + "'";
  if (auto* b = std::get_if<bool*>(&f.field)) {
    **b = true;
    return "";
  }
  if (auto* s = std::get_if<std::string*>(&f.field)) {
    if (text.empty()) return "needs a non-empty value";
    if (!f.choices.empty() &&
        std::find(f.choices.begin(), f.choices.end(), text) == f.choices.end())
      return quoted + " is not one of " + join(f.choices, "|");
    **s = text;
    return "";
  }
  if (auto* list = std::get_if<std::vector<std::uint64_t>*>(&f.field)) {
    std::vector<std::uint64_t> values;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t comma = text.find(',', pos);
      std::uint64_t v = 0;
      if (!parse_uint(text.substr(pos, comma - pos), &v))
        return quoted + " is not a comma-separated list of unsigned integers";
      if (!in_range(f, static_cast<double>(v)))
        return quoted + " has an element not " + range(f);
      values.push_back(v);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    **list = std::move(values);
    return "";
  }
  const bool is_u64 = std::holds_alternative<std::uint64_t*>(f.field);
  std::uint64_t u = 0;
  double value = 0.0;
  if (is_u64 ? !parse_uint(text, &u) : !parse_double(text, &value))
    return quoted +
           (is_u64 ? " is not an unsigned integer" : " is not a number");
  if (is_u64) value = static_cast<double>(u);
  if (!in_range(f, value)) return quoted + " is not " + range(f);
  if (is_u64)
    *std::get<std::uint64_t*>(f.field) = u;
  else
    *std::get<double*>(f.field) = value;
  return "";
}

void print_help(const char* cmd, const char* about,
                const std::vector<Flag>& flags) {
  std::string usage = std::string("usage: gossiplab ") + cmd;
  for (const Flag& f : flags)
    if (f.required) usage += std::string(" --") + f.name + " " + metavar(f);
  std::printf("%s [flags]\n%s\n", usage.c_str(), about);
  const std::string indent(kHelpColumn, ' ');
  for (const Flag& f : flags) {
    std::string left = std::string("  --") + f.name;
    if (f.alias != nullptr) left += std::string(", --") + f.alias;
    if (const std::string m = metavar(f); !m.empty()) left += " " + m;
    left += left.size() + 2 <= kHelpColumn
                ? std::string(kHelpColumn - left.size(), ' ')
                : "\n" + indent;

    std::vector<std::string> notes;
    if (!f.choices.empty()) notes.push_back("one of " + join(f.choices, "|"));
    if (const std::string r = range(f); !r.empty()) notes.push_back(r);
    if (f.required) notes.push_back("required");
    if (f.def != nullptr) notes.push_back(std::string("default ") + f.def);
    std::string text = f.help;
    if (!notes.empty()) {
      // The notes go on the help's last line if they fit, else on lines of
      // their own, a long choice list broken after a '|'.
      const std::string all = "(" + join(notes, "; ") + ")";
      std::size_t col = kHelpColumn + text.size() - (text.rfind('\n') + 1);
      if (col + 1 + all.size() <= kHelpWidth) {
        text += " " + all;
      } else {
        col = kHelpColumn;
        text += "\n";
        for (std::size_t pos = 0; pos < all.size();) {
          const std::size_t bar = all.find('|', pos);
          const std::size_t end =
              bar == std::string::npos ? all.size() : bar + 1;
          if (col > kHelpColumn && col + end - pos > kHelpWidth) {
            text += "\n";
            col = kHelpColumn;
          }
          text += all.substr(pos, end - pos);
          col += end - pos;
          pos = end;
        }
      }
    }
    for (std::size_t nl = 0; (nl = text.find('\n', nl)) != std::string::npos;)
      text.insert(++nl, indent);
    std::printf("%s%s\n", left.c_str(), text.c_str());
  }
}

}  // namespace

void usage_error(const char* cmd, const std::string& message) {
  std::fprintf(stderr, "gossiplab %s: %s\n", cmd, message.c_str());
  std::exit(2);
}

Given parse_flags(const char* cmd, const char* about,
                  const std::vector<Flag>& flags,
                  const std::vector<std::string>& args) {
  if (std::find(args.begin(), args.end(), "--help") != args.end()) {
    print_help(cmd, about, flags);
    std::exit(0);
  }
  for (const Flag& f : flags) {
    if (f.def == nullptr) continue;
    if (const std::string err = assign(f, f.def); !err.empty())
      throw std::logic_error(std::string("bad default for --") + f.name +
                             ": " + err);
  }
  Given given;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0)
      usage_error(cmd, "unexpected argument '" + arg + "'");
    const std::string name = arg.substr(2);
    const auto row =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
          return name == f.name || (f.alias != nullptr && name == f.alias);
        });
    if (row == flags.end())
      usage_error(cmd, "unknown flag " + arg + " (try: gossiplab " + cmd +
                           " --help)");
    if (!given.insert(row->name).second)
      usage_error(cmd, "--" + std::string(row->name) + " given twice");
    if (std::holds_alternative<bool*>(row->field)) {
      assign(*row, "");
      continue;
    }
    if (i + 1 == args.size() || args[i + 1].rfind("--", 0) == 0)
      usage_error(cmd, arg + " needs a value (" + metavar(*row) + ")");
    if (std::string err = assign(*row, args[++i]); !err.empty())
      usage_error(cmd, err.insert(0, arg + ": "));
  }
  for (const Flag& f : flags)
    if (f.required && given.count(f.name) == 0)
      usage_error(cmd, std::string("--") + f.name + " is required");
  return given;
}

std::vector<std::string> flag_args(const std::vector<Flag>& flags) {
  std::vector<std::string> out;
  for (const Flag& f : flags) {
    const std::string name = std::string("--") + f.name;
    std::string value;
    if (auto* b = std::get_if<bool*>(&f.field)) {
      if (**b) out.push_back(name);
      continue;
    }
    if (auto* s = std::get_if<std::string*>(&f.field)) {
      value = **s;
    } else if (auto* u = std::get_if<std::uint64_t*>(&f.field)) {
      value = std::to_string(**u);
    } else if (auto* d = std::get_if<double*>(&f.field)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", **d);  // round-trips exactly
      value = buf;
    } else {
      for (const std::uint64_t v :
           *std::get<std::vector<std::uint64_t>*>(f.field))
        value += (value.empty() ? "" : ",") + std::to_string(v);
    }
    if (value.empty()) continue;
    out.push_back(name);
    out.push_back(value);
  }
  return out;
}

}  // namespace asyncgossip::cli
