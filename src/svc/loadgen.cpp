#include "svc/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "common/stats.h"
#include "rt/clock.h"
#include "svc/history.h"

namespace asyncgossip {
namespace svc {

Command loadgen_command(const LoadgenConfig& config, std::uint64_t i) {
  // Per-request rng: the workload is a pure function of (seed, i), so any
  // party — tests, a future distributed loadgen — re-derives request i
  // without replaying the stream.
  Xoshiro256SS rng(config.seed ^ ((i + 1) * 0x9E3779B97F4A7C15ULL));
  const std::size_t clients = std::max<std::size_t>(config.clients, 1);
  Command cmd;
  cmd.client = 1 + i % clients;
  cmd.client_seq = 1 + i / clients;
  cmd.key = "k" + std::to_string(rng.uniform(std::max<std::uint64_t>(
                      config.keys, 1)));
  const double roll = rng.uniform_real();
  if (roll < config.get_fraction) {
    cmd.op = SvcOp::kGet;
    return cmd;
  }
  std::string value = "v" + std::to_string(i);
  if (value.size() < config.value_bytes)
    value.append(config.value_bytes - value.size(), 'x');
  cmd.value = std::move(value);
  if (roll < config.get_fraction + config.cas_fraction) {
    cmd.op = SvcOp::kCas;
    // Half the CAS traffic targets absent keys ("-" comparand), half races
    // against a plausible earlier value; both outcomes are legal, the
    // checker verifies the recorded one matches the linearized state.
    cmd.expected = rng.bernoulli(0.5)
                       ? std::string("-")
                       : "v" + std::to_string(rng.uniform(i + 1)) + "x";
  } else {
    cmd.op = SvcOp::kPut;
  }
  return cmd;
}

namespace {

/// Shared response-side accounting: callbacks (inproc commit thread or the
/// UDP receiver) record here; the issuing thread waits on `done`.
struct Collector {
  explicit Collector(std::ostream* out) : obs_out(out) {}

  void record(const Command& cmd, const CommandResult& result,
              std::uint64_t latency_us) {
    MutexLock lock(&mu);
    ++done;
    if (result.unavailable) {
      ++unavailable;
    } else {
      ++acked;
      latencies.push_back(latency_us);
    }
    if (obs_out != nullptr) {
      Observation obs;
      obs.cmd = cmd;
      obs.result = result;
      *obs_out << encode_observation(obs) << '\n';
    }
    cv.notify_all();
  }

  void wait_done(std::uint64_t want) {
    MutexLock lock(&mu);
    while (done < want) cv.wait(mu);
  }

  Mutex mu;
  CondVar cv;
  std::uint64_t done AG_GUARDED_BY(mu) = 0;
  std::uint64_t acked AG_GUARDED_BY(mu) = 0;
  std::uint64_t unavailable AG_GUARDED_BY(mu) = 0;
  std::vector<std::uint64_t> latencies AG_GUARDED_BY(mu);
  std::ostream* obs_out AG_PT_GUARDED_BY(mu);
};

void finish_report(const LoadgenConfig& config, Collector& col,
                   double wall_ms, LoadgenReport* report) {
  MutexLock lock(&col.mu);
  report->attempted = config.requests;
  report->acked = col.acked;
  report->unavailable = col.unavailable;
  report->unacked = config.requests - col.acked - col.unavailable;
  report->complete = col.acked == config.requests;
  report->wall_ms = wall_ms;
  report->achieved_rate =
      wall_ms > 0.0 ? static_cast<double>(col.acked) / (wall_ms / 1000.0)
                    : 0.0;
  std::sort(col.latencies.begin(), col.latencies.end());
  report->p50_us = quantile(col.latencies, 0.50);
  report->p95_us = quantile(col.latencies, 0.95);
  report->p99_us = quantile(col.latencies, 0.99);
  report->max_us = col.latencies.empty() ? 0 : col.latencies.back();
}

/// Due tick (microseconds from start) of request i under open-loop pacing.
std::uint64_t due_us(double rate, std::uint64_t i) {
  return static_cast<std::uint64_t>(static_cast<double>(i) * 1e6 / rate);
}

LoadgenReport run_inproc(const LoadgenConfig& config) {
  Collector col(config.obs_out);
  const TickClock clock(1);  // 1 us ticks: the pacing axis
  const Stopwatch wall;
  for (std::uint64_t i = 0; i < config.requests; ++i) {
    if (config.rate > 0.0) clock.sleep_until_tick(due_us(config.rate, i));
    const Command cmd = loadgen_command(config, i);
    config.inproc->submit(cmd, [&col](const Command& c,
                                      const CommandResult& result,
                                      std::uint64_t latency_us) {
      col.record(c, result, latency_us);
    });
  }
  col.wait_done(config.requests);  // inproc: every submit is answered
  const double wall_ms = wall.elapsed_ms();
  LoadgenReport report;
  finish_report(config, col, wall_ms, &report);
  return report;
}

struct PendingRequest {
  Command cmd;
  Stopwatch sent;
};

LoadgenReport run_udp(const LoadgenConfig& config) {
  Collector col(config.obs_out);
  Mutex pending_mu;
  std::map<std::pair<std::uint64_t, std::uint64_t>, PendingRequest> pending;

  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  AG_ASSERT_MSG(fd >= 0, "loadgen: socket() failed");
  timeval tv{};
  tv.tv_usec = 50 * 1000;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in server{};
  server.sin_family = AF_INET;
  server.sin_port = htons(config.udp_port);
  server.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  std::atomic<bool> stop_receiver{false};
  std::thread receiver([&] {
    char buf[8192];
    while (!stop_receiver.load()) {
      const ssize_t got = ::recv(fd, buf, sizeof(buf) - 1, 0);
      if (got <= 0) continue;
      Response res;
      if (!decode_response(std::string(buf, static_cast<std::size_t>(got)),
                           &res))
        continue;
      Command cmd;
      std::uint64_t latency_us = 0;
      {
        MutexLock lock(&pending_mu);
        const auto it = pending.find({res.client, res.client_seq});
        if (it == pending.end()) continue;  // duplicate or stray response
        cmd = it->second.cmd;
        latency_us = it->second.sent.elapsed_us();
        pending.erase(it);
      }
      col.record(cmd, res.result, latency_us);
    }
  });

  const TickClock clock(1);
  const Stopwatch wall;
  for (std::uint64_t i = 0; i < config.requests; ++i) {
    if (config.rate > 0.0) clock.sleep_until_tick(due_us(config.rate, i));
    const Command cmd = loadgen_command(config, i);
    {
      MutexLock lock(&pending_mu);
      pending.emplace(std::make_pair(cmd.client, cmd.client_seq),
                      PendingRequest{cmd, Stopwatch{}});
    }
    const std::string req = encode_request(cmd);
    (void)::sendto(fd, req.data(), req.size(), 0,
                   reinterpret_cast<const sockaddr*>(&server),
                   sizeof(server));
  }

  // Drain: give trailing responses a bounded grace period.
  const Stopwatch drain;
  while (drain.elapsed_ms() < config.drain_timeout_s * 1000.0) {
    {
      MutexLock lock(&pending_mu);
      if (pending.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop_receiver.store(true);
  receiver.join();
  ::close(fd);
  const double wall_ms = wall.elapsed_ms();
  LoadgenReport report;
  finish_report(config, col, wall_ms, &report);
  return report;
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenConfig& config) {
  AG_ASSERT_MSG((config.inproc != nullptr) != (config.udp_port != 0),
                "loadgen needs exactly one target (inproc or udp)");
  AG_ASSERT_MSG(config.requests > 0, "loadgen needs requests > 0");
  if (config.obs_out != nullptr)
    *config.obs_out << kObsHeader << " seed " << config.seed << " requests "
                    << config.requests << '\n';
  LoadgenReport report = config.inproc != nullptr ? run_inproc(config)
                                                  : run_udp(config);
  if (config.obs_out != nullptr) config.obs_out->flush();
  return report;
}

}  // namespace svc
}  // namespace asyncgossip
