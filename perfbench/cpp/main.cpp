// perfbench: the repo benchmark binary.
//
//   perfbench --workload <sim-table1|svc-closed|svc-open> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//   perfbench --print-pins
//
// Runs one workload's fixed work list (derived from --seed and sized by
// --seconds, never by the clock), checks its outputs and prints, as the last
// line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a separate traced run. The line before it,
// {"exact": {...}}, lists the counts that must repeat exactly across runs.
// Exit status: 0 when the run completed (correct or not), 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"
#include "consensus/cr_gossip.h"

namespace perfbench {

double Span::attr(const char* key) const {
  for (const auto& [k, v] : attrs)
    if (std::strcmp(k, key) == 0) return v;
  return 0.0;
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent,
                            std::string label) {
  if (!on_) return 0;
  Span s;
  s.name = name;
  s.label = std::move(label);
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  if (id != 0) spans_[id - 1].end_ns = now_ns();
}

void Tracer::attr(std::uint32_t id, const char* key, double value) {
  if (id != 0) spans_[id - 1].attrs.emplace_back(key, value);
}

std::vector<const Span*> Tracer::find(const char* name,
                                      const std::string& label) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0 && (label.empty() || s.label == label))
      out.push_back(&s);
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans_) {
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
       << s.name << "\",\"label\":\"" << s.label
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"attrs\":{";
    for (std::size_t i = 0; i < s.attrs.size(); ++i)
      os << (i ? "," : "") << '"' << s.attrs[i].first
         << "\":" << s.attrs[i].second;
    os << "}}\n";
  }
  return static_cast<bool>(os);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::fail(const std::string& why, std::uint64_t count) {
  failed += count;
  if (errors.size() < 8) errors.push_back(why);
}

void report_setup(const std::vector<double>& seconds, Report& rep) {
  std::fprintf(stderr, "SETUPDBG");
  for (double s : seconds) std::fprintf(stderr, " %.5f", s);
  std::fprintf(stderr, "\n");
  rep.metric("setup_s", *std::min_element(seconds.begin(), seconds.end()),
             "s");
}

namespace {

// Every per-layer metric, in BENCHMARK.json order. A traced run reports all
// of them; a layer the workload never calls reads 0.
constexpr const char* kPerLayer[][2] = {
    {"sim.build_ms", "ms"},         {"sim.run_ms", "ms"},
    {"sim.run_ms.ears", "ms"},      {"sim.run_ms.sears", "ms"},
    {"sim.run_ms.tears", "ms"},     {"sim.run_ms.trivial", "ms"},
    {"sim.self_ms", "ms"},          {"sim.ns_per_envelope", "ns"},
    {"sim.envelopes", "count"},     {"sim.local_steps", "count"},
    {"sim.slab_allocs", "count"},   {"sim.slab_reuses", "count"},
    {"sim.payload_pool_peak", "count"},
    {"gossip.step_ms", "ms"},       {"gossip.steps", "count"},
    {"consensus.slot_us.p50", "us"}, {"consensus.slot_us.p99", "us"},
    {"consensus.msgs_per_slot", "count"},
    {"consensus.ticks_per_slot", "count"},
    {"svc.slots", "count"},         {"svc.cmds_per_slot", "count"},
    {"svc.apply_us", "us"},         {"svc.batch_overhead_us", "us"},
    {"gen.late_p99_ms", "ms"},      {"gen.late_max_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void print_result(const Report& report, const std::vector<Metric>& metrics) {
  std::printf("{\"exact\": {");
  for (std::size_t i = 0; i < report.exact.size(); ++i) {
    std::printf(i ? ", " : "");
    print_json_string(report.exact[i].first);
    std::printf(": %" PRIu64, report.exact[i].second);
  }
  std::printf("}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              report.correct() ? "true" : "false", report.attempted,
              report.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf(i ? ", " : "");
    print_json_string(metrics[i].name);
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf(": {\"value\": %.17g, \"unit\": ", v);
    print_json_string(metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sim-table1|svc-closed|svc-open> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\n       perfbench --print-pins\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::uint64_t process_start = now_ns();
  Options opts;
  std::uint64_t trace = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-pins") {
      asyncgossip::register_consensus_algorithms();
      return print_sim_table1_pins();
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      have_seed = parse_u64(value, &opts.seed);
      if (!have_seed) return usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      have_seconds = parse_u64(value, &opts.seconds) && opts.seconds >= 1;
      if (!have_seconds) return usage("--seconds takes an integer >= 1");
    } else if (flag == "--trace") {
      have_trace = parse_u64(value, &trace) && trace <= 1;
      if (!have_trace) return usage("--trace takes 0 or 1");
    } else if (flag == "--spans") {
      opts.spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opts.workload.empty())
    return usage("--workload, --seed, --seconds and --trace are required");
  opts.trace = trace == 1;

  asyncgossip::register_consensus_algorithms();
  Tracer tracer(opts.trace);
  Report report;
  try {
    if (opts.workload == "sim-table1")
      report = run_sim_table1(opts, process_start, tracer);
    else if (opts.workload == "svc-closed")
      report = run_svc_closed(opts, process_start, tracer);
    else if (opts.workload == "svc-open")
      report = run_svc_open(opts, process_start, tracer);
    else
      return usage(("unknown workload " + opts.workload).c_str());
  } catch (const std::exception& e) {
    // A failed assertion or model violation is a failed run, not a crash of
    // the benchmark: report it as an incorrect result.
    report.attempted = std::max<std::uint64_t>(report.attempted, 1);
    report.fail(std::string("exception: ") + e.what());
  }
  for (const std::string& e : report.errors)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());

  std::vector<Metric> metrics;
  if (!opts.trace) {
    const double ok_frac =
        report.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted);
    metrics = report.metrics;
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
    metrics.push_back({"ok_frac", ok_frac, "fraction"});
  } else {
    for (const auto& [name, unit] : kPerLayer) {
      Metric m{name, 0.0, unit};
      for (const Metric& r : report.metrics)
        if (r.name == name) m.value = r.value;
      metrics.push_back(m);
    }
    if (!opts.spans_path.empty() && !tracer.write(opts.spans_path))
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   opts.spans_path.c_str());
  }
  report.attempted = std::max<std::uint64_t>(report.attempted, 1);
  print_result(report, metrics);
  return 0;
}
