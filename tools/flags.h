// Declarative command-line flags for gossiplab.
//
// A subcommand declares its flags once, as a table of Flag rows. A row names
// the flag (plus an optional alias), binds it to the field it sets, and
// carries its default, its help text and its constraints. parse_flags()
// reads the arguments against the table: it writes each default and then
// each given value through the row's binding, checks every value strictly,
// prints the generated --help, and turns every usage error into exit 2 with
// a message naming the flag.
#pragma once

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace asyncgossip::cli {

/// The field a flag sets. Its type is the flag's value kind: a switch
/// (bool, takes no value), an unsigned integer, a double, a string (a
/// choice when the row lists choices) or a comma-separated list of
/// unsigned integers.
using FlagField = std::variant<bool*, std::uint64_t*, double*, std::string*,
                               std::vector<std::uint64_t>*>;

struct Flag {
  Flag(const char* flag, FlagField target, const char* deflt, const char* text)
      : name(flag), field(target), def(deflt), help(text) {}

  Flag aka(const char* other) && {
    alias = other;
    return std::move(*this);
  }
  Flag one_of(std::vector<std::string> values) && {
    choices = std::move(values);
    return std::move(*this);
  }
  /// Inclusive bounds on a number (each element of a list).
  Flag in(double lo, double hi = std::numeric_limits<double>::infinity()) && {
    min = lo;
    max = hi;
    return std::move(*this);
  }
  Flag needed() && {
    required = true;
    return std::move(*this);
  }

  const char* name;  // without the leading "--"
  FlagField field;
  /// Written through `field` like a command-line value before the arguments
  /// are read. nullptr keeps the field's initial value; the help text then
  /// states the rule (a default that depends on other flags).
  const char* def;
  const char* help;  // '\n' separates lines
  const char* alias = nullptr;
  std::vector<std::string> choices;
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool required = false;
};

/// Canonical names of the flags given on the command line.
using Given = std::set<std::string>;

/// Parses `args` (the arguments after the subcommand) against `flags`. On
/// --help prints the generated help (usage line, `about`, one entry per
/// row) and exits 0. On a usage error — unknown flag, repeated flag,
/// missing or malformed value, bad choice, value out of range, missing
/// required flag — prints a message naming the flag and exits 2.
Given parse_flags(const char* cmd, const char* about,
                  const std::vector<Flag>& flags,
                  const std::vector<std::string>& args);

/// Reports a usage error the table cannot express (a rule across flags)
/// and exits 2.
[[noreturn]] void usage_error(const char* cmd, const std::string& message);

/// The arguments that reproduce the rows' current values ("--name value";
/// a set switch alone; unset strings and switches are left out).
std::vector<std::string> flag_args(const std::vector<Flag>& flags);

}  // namespace asyncgossip::cli
