// tracecheck — offline linter for recorded execution traces.
//
// Consumes the text trace format written by TraceRecorder::write_trace
// (sim/trace.h; record one with `gossiplab trace --record FILE`) plus a
// model spec (n, d, delta, f), replays the events through the same
// InvariantAuditor that audits live runs (sim/audit.h), and reports every
// model-contract violation with the offending line and surrounding
// context. Exit status: 0 clean, 1 violations found, 2 usage or I/O
// error, 3 malformed trace.
//
// The model spec is read from the trace's `model n=.. d=.. delta=.. f=..`
// line; command-line flags override it. This makes a recorded trace a
// *verifiable artifact*: a benchmark run can ship its trace, and anyone
// can re-check that the claimed (d, delta, f) bounds actually held.
//
// Every number, in a flag or in the trace, is plain decimal digits that
// fit its field (common/parse.h): a signed or overflowing flag value exits
// 2 naming the flag, and such a trace or model field exits 3.
//
// Usage:
//   tracecheck [--n N] [--d D] [--delta DELTA] [--f F]
//              [--context K] [--max-report M] [--no-finalize] FILE
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.h"
#include "sim/audit.h"
#include "sim/trace.h"

using namespace asyncgossip;

namespace {

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

struct Options {
  AuditConfig model;
  bool n_set = false, d_set = false, delta_set = false, f_set = false;
  std::size_t context = 2;
  bool finalize = true;
  std::string path;
};

void usage() {
  std::fprintf(stderr,
               "usage: tracecheck [--n N] [--d D] [--delta DELTA] [--f F]\n"
               "                  [--context K] [--max-report M] "
               "[--no-finalize] FILE\n"
               "record a trace with: gossiplab trace --alg ears --n 16 "
               "--f 4 --record FILE\n");
}

bool parse_options(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad_value = false;
    const auto next_u64 = [&](std::uint64_t* out,
                              std::uint64_t max = kMaxU64) {
      if (i + 1 < argc && parse_uint(std::string_view(argv[i + 1]), out) &&
          *out <= max) {
        ++i;
        return true;
      }
      bad_value = true;
      return false;
    };
    std::uint64_t v = 0;
    if (arg == "--n" && next_u64(&v, kNoProcess)) {
      opts->model.n = v;
      opts->n_set = true;
    } else if (arg == "--d" && next_u64(&v)) {
      opts->model.d = v;
      opts->d_set = true;
    } else if (arg == "--delta" && next_u64(&v)) {
      opts->model.delta = v;
      opts->delta_set = true;
    } else if (arg == "--f" && next_u64(&v)) {
      opts->model.max_crashes = v;
      opts->f_set = true;
    } else if (arg == "--context" && next_u64(&v)) {
      opts->context = v;
    } else if (arg == "--max-report" && next_u64(&v)) {
      opts->model.max_recorded = v;
    } else if (arg == "--no-finalize") {
      opts->finalize = false;
    } else if (!arg.empty() && arg[0] != '-' && opts->path.empty()) {
      opts->path = arg;
    } else if (bad_value) {
      std::fprintf(stderr,
                   "tracecheck: %s needs an unsigned integer <= %llu, got "
                   "'%s'\n",
                   arg.c_str(),
                   static_cast<unsigned long long>(
                       arg == "--n" ? kNoProcess : kMaxU64),
                   i + 1 < argc ? argv[i + 1] : "");
      return false;
    } else {
      std::fprintf(stderr, "tracecheck: bad argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts->path.empty();
}

/// Absorbs a `model n=.. d=.. delta=.. f=..` line, not overriding values
/// pinned on the command line. False if the line is not exactly those four
/// fields, each plain decimal digits (n must fit a process id).
bool absorb_model_line(const std::string& line, Options* opts) {
  static constexpr std::string_view kKeys[] = {"n=", "d=", "delta=", "f="};
  std::uint64_t values[std::size(kKeys)] = {};
  std::istringstream in(line);
  std::string word;
  in >> word;  // "model"
  for (std::size_t k = 0; k < std::size(kKeys); ++k) {
    if (!(in >> word) || word.rfind(kKeys[k], 0) != 0 ||
        !parse_uint(std::string_view(word).substr(kKeys[k].size()),
                    &values[k]))
      return false;
  }
  if (in >> word || values[0] > kNoProcess) return false;
  if (!opts->n_set) opts->model.n = values[0];
  if (!opts->d_set) opts->model.d = values[1];
  if (!opts->delta_set) opts->model.delta = values[2];
  if (!opts->f_set) opts->model.max_crashes = values[3];
  return true;
}

void print_context(const std::vector<std::string>& lines, std::size_t line_no,
                   std::size_t context) {
  const std::size_t first = line_no > context ? line_no - context : 1;
  const std::size_t last = std::min(lines.size(), line_no + context);
  for (std::size_t i = first; i <= last; ++i)
    std::fprintf(stderr, "  %c%5zu | %s\n", i == line_no ? '>' : ' ', i,
                 lines[i - 1].c_str());
}

int run(const Options& opts_in) {
  Options opts = opts_in;
  std::ifstream in(opts.path);
  if (!in) {
    std::fprintf(stderr, "tracecheck: cannot open %s\n", opts.path.c_str());
    return 2;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  // First pass: pick up the model spec (flags win over the model line).
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("model", 0) != 0 || absorb_model_line(lines[i], &opts))
      continue;
    std::fprintf(stderr, "%s:%zu: malformed model line\n", opts.path.c_str(),
                 i + 1);
    print_context(lines, i + 1, opts.context);
    return 3;
  }
  if (opts.model.n == 0) {
    std::fprintf(stderr,
                 "tracecheck: no model spec — the trace has no `model` line "
                 "and --n was not given\n");
    return 2;
  }

  InvariantAuditor auditor(opts.model);
  std::uint64_t reported = 0;
  std::size_t parse_errors = 0;
  Time last_event_time = 0;
  bool any_event = false;

  for (std::size_t i = 0; i < lines.size(); ++i) {
    TraceRecorder::Event e;
    const auto parsed = TraceRecorder::parse_line(lines[i], &e);
    if (parsed == TraceRecorder::ParseResult::kSkip) continue;
    if (parsed == TraceRecorder::ParseResult::kError) {
      ++parse_errors;
      if (parse_errors <= 3) {
        std::fprintf(stderr, "%s:%zu: malformed trace line\n",
                     opts.path.c_str(), i + 1);
        print_context(lines, i + 1, opts.context);
      }
      continue;
    }
    const std::uint64_t before = auditor.report().total();
    replay_event(e, &auditor);
    any_event = true;
    last_event_time = std::max(last_event_time, e.time);

    // Attribute fresh findings to this line while they are still cheap to
    // locate; counts beyond max_recorded stay in the per-kind totals.
    const auto& violations = auditor.report().violations();
    for (std::uint64_t v = before; v < auditor.report().total(); ++v) {
      ++reported;
      if (v >= violations.size()) break;
      const Violation& viol = violations[static_cast<std::size_t>(v)];
      std::fprintf(stderr, "%s:%zu: [%s] %s\n", opts.path.c_str(), i + 1,
                   to_string(viol.kind), viol.detail.c_str());
      print_context(lines, i + 1, opts.context);
    }
  }

  if (opts.finalize && any_event) {
    const std::uint64_t before = auditor.report().total();
    // The trace covers global steps 0 .. last_event_time; anything the
    // engine ran beyond that emitted no events and cannot starve anyone
    // for longer than what finalize already checks.
    auditor.finalize(last_event_time + 1);
    const auto& violations = auditor.report().violations();
    for (std::uint64_t v = before; v < auditor.report().total(); ++v) {
      ++reported;
      if (v >= violations.size()) break;
      const Violation& viol = violations[static_cast<std::size_t>(v)];
      std::fprintf(stderr, "%s: [%s] %s (end-of-trace check)\n",
                   opts.path.c_str(), to_string(viol.kind),
                   viol.detail.c_str());
    }
  }

  const std::uint64_t total = auditor.report().total();
  if (parse_errors != 0) {
    std::fprintf(stderr, "tracecheck: %zu malformed line(s), %llu model "
                 "violation(s)\n",
                 parse_errors, static_cast<unsigned long long>(total));
    return 3;
  }
  if (total != 0) {
    std::fprintf(stderr,
                 "tracecheck: %llu model violation(s) in %s (n=%zu d=%llu "
                 "delta=%llu f=%zu)\n",
                 static_cast<unsigned long long>(total), opts.path.c_str(),
                 opts.model.n, static_cast<unsigned long long>(opts.model.d),
                 static_cast<unsigned long long>(opts.model.delta),
                 opts.model.max_crashes);
    return 1;
  }
  std::printf(
      "tracecheck: OK — %llu steps, %llu sends, %llu deliveries, %llu "
      "crashes conform to (n=%zu, d=%llu, delta=%llu, f=%zu)\n",
      static_cast<unsigned long long>(auditor.observed_steps()),
      static_cast<unsigned long long>(auditor.observed_sends()),
      static_cast<unsigned long long>(auditor.observed_deliveries()),
      static_cast<unsigned long long>(auditor.observed_crashes()),
      opts.model.n, static_cast<unsigned long long>(opts.model.d),
      static_cast<unsigned long long>(opts.model.delta),
      opts.model.max_crashes);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_options(argc, argv, &opts)) {
    usage();
    return 2;
  }
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tracecheck: %s\n", e.what());
    return 2;
  }
}
