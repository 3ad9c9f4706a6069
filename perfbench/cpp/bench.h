// Shared pieces of the repo benchmark: the clock, the in-memory span
// recorder of a traced run, sample statistics and the result a workload
// hands back to main(). See perfbench/README.md for the metric definitions.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock: the time base of every measurement.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double ns_to_ms(double ns) { return ns / 1e6; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the fixed work list; the work never depends on the clock.
  std::uint64_t seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans (JSON lines); empty = keep only.
  std::string spans_path;
};

/// Set-up repetitions per run; setup_s reports the lowest.
constexpr std::size_t kSetupReps = 5;

/// One recorded span: name, start, end and the span that caused it, plus
/// an optional label and numeric attributes (counts measured at the same
/// boundary). Spans stay in memory until write() at the end of the run.
struct Span {
  const char* name = "";
  std::string label;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<std::pair<const char*, double>> attrs;

  double ms() const { return ns_to_ms(static_cast<double>(end_ns - start_ns)); }
  double attr(const char* key) const;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  /// Opens a span and returns its id; 0 (and nothing recorded) when off.
  std::uint32_t begin(const char* name, std::uint32_t parent = 0,
                      std::string label = {});
  /// Closes span `id` now. No-op for id 0.
  void end(std::uint32_t id);
  /// Attaches a numeric attribute to span `id`. No-op for id 0.
  void attr(std::uint32_t id, const char* key, double value);

  /// Spans named `name` (and labelled `label`, when non-empty).
  std::vector<const Span*> find(const char* name,
                                const std::string& label = {}) const;

  /// Writes every span as one JSON object per line. Returns false on I/O
  /// failure.
  bool write(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Median of a sample (mean of the middle pair for even sizes); 0 if empty.
double median(std::vector<double> v);
/// Nearest-rank quantile q in [0, 1] of a sample; 0 if empty.
double quantile(std::vector<double> v, double q);
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back: its counts, its metrics (end-to-end ones
/// untraced, per-layer ones traced) and the exact counts the steadiness
/// check compares across runs.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure descriptions (stderr only).
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::uint64_t>> exact;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records one failed operation with its reason.
  void fail(const std::string& why, std::uint64_t count = 1);
  bool correct() const { return failed == 0 && errors.empty(); }
};

/// Reports setup_s: the lowest of the run's set-up repetitions.
void report_setup(const std::vector<double>& seconds, Report& rep);

/// Runs `setup` (build the inputs, then warm up) and appends its wall
/// seconds, timed from `start_ns`, to *seconds. A workload sets up
/// kSetupReps times: once before the measured work, timed from process
/// start, and kSetupReps - 1 times between its measured repetitions (see
/// setups_after), so the set-ups sample the whole run and not one moment of
/// the host.
template <typename Setup>
auto timed_setup(std::uint64_t start_ns, std::vector<double>* seconds,
                 Setup&& setup) {
  auto state = setup();
  seconds->push_back(static_cast<double>(now_ns() - start_ns) / 1e9);
  return state;
}

/// How many set-ups are due after measured repetition `r` (0-based) of
/// `reps`: the kSetupReps - 1 after the first, spread evenly over the run.
inline std::size_t setups_after(std::size_t r, std::size_t reps) {
  std::size_t due = 0;
  for (std::size_t k = 1; k < kSetupReps; ++k)
    if (std::max<std::size_t>(1, k * reps / (kSetupReps - 1)) == r + 1) ++due;
  return due;
}

// The three workloads (sim_table1.cpp, svc_workloads.cpp).
Report run_sim_table1(const Options& opts, std::uint64_t process_start_ns,
                      Tracer& tracer);
Report run_svc_closed(const Options& opts, std::uint64_t process_start_ns,
                      Tracer& tracer);
Report run_svc_open(const Options& opts, std::uint64_t process_start_ns,
                    Tracer& tracer);

/// Prints the table of pinned sim-table1 hashes and totals (regeneration).
int print_sim_table1_pins();

}  // namespace perfbench
