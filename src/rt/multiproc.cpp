#include "rt/multiproc.h"

#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "common/assert.h"
#include "common/bitset.h"
#include "gossip/completion.h"
#include "gossip/rumor.h"
#include "rt/clock.h"
#include "rt/merge.h"
#include "rt/step.h"

extern char** environ;

namespace asyncgossip {

namespace {

using Event = TraceRecorder::Event;

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// --- worker trace file ----------------------------------------------------
// trace-format-v1 event lines plus `#` metadata lines the coordinator
// parses back: a summary header, the final rumor set, and probe reports.

constexpr const char* kWorkerHeaderTag = "# asyncgossip-rtworker-v1";

struct WorkerMeta {
  ProcessId worker = kNoProcess;
  bool crashed = false;
  bool quiescent = false;
  bool timed_out = false;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t steps = 0;
  /// GossipProcess::final_note() — single line, may be empty.
  std::string note;
};

bool write_worker_file(const std::string& path, const WorkerMeta& meta,
                       const DynamicBitset& rumors, const RtProcessLog& log) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << kWorkerHeaderTag << " worker " << meta.worker << " crashed "
     << (meta.crashed ? 1 : 0) << " quiescent " << (meta.quiescent ? 1 : 0)
     << " timedout " << (meta.timed_out ? 1 : 0) << " bytes " << meta.bytes
     << " dropped " << meta.dropped << " steps " << meta.steps << '\n';
  os << "# rumors " << meta.worker;
  rumors.for_each_set([&](std::size_t i) { os << ' ' << i; });
  os << '\n';
  if (!meta.note.empty()) os << "# note " << meta.note << '\n';
  for (const RtProbeRecord& r : log.probes) {
    if (r.is_phase)
      os << "# probe phase " << r.time << ' ' << r.process << ' '
         << (r.phase != nullptr ? r.phase : "?") << '\n';
    else
      os << "# probe state " << r.time << ' ' << r.process << ' '
         << r.rumors_known << ' ' << r.rumors_fully_informed << '\n';
  }
  for (const Event& e : log.events)
    os << TraceRecorder::format_event(e) << '\n';
  os.flush();
  return static_cast<bool>(os);
}

/// Interns a parsed phase string; RtProbeRecord carries `const char*`, so
/// the coordinator owns the backing storage in the result's phase_pool.
/// Linear scan: the phase vocabulary is a handful of static literals.
const char* intern_phase(MultiprocResult* res, const std::string& s) {
  for (const auto& owned : res->phase_pool)
    if (*owned == s) return owned->c_str();
  res->phase_pool.push_back(std::make_unique<std::string>(s));
  return res->phase_pool.back()->c_str();
}

bool parse_worker_file(const std::string& path, std::size_t n,
                       MultiprocResult* res, RtProcessLog* log,
                       WorkerMeta* meta, DynamicBitset* rumors,
                       std::string* error) {
  std::ifstream is(path);
  if (!is) {
    *error = "missing trace file " + path;
    return false;
  }
  bool saw_header = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(kWorkerHeaderTag, 0) == 0) {
      std::istringstream ls(line.substr(std::strlen(kWorkerHeaderTag)));
      std::string key;
      std::uint64_t worker = 0, crashed = 0, quiescent = 0, timedout = 0;
      ls >> key >> worker >> key >> crashed >> key >> quiescent >> key >>
          timedout >> key >> meta->bytes >> key >> meta->dropped >> key >>
          meta->steps;
      if (!ls || worker >= n) {
        *error = "bad worker header in " + path;
        return false;
      }
      meta->worker = static_cast<ProcessId>(worker);
      meta->crashed = crashed != 0;
      meta->quiescent = quiescent != 0;
      meta->timed_out = timedout != 0;
      saw_header = true;
    } else if (line.rfind("# rumors ", 0) == 0) {
      std::istringstream ls(line.substr(std::strlen("# rumors ")));
      std::uint64_t owner = 0;
      ls >> owner;
      (void)owner;  // redundant with the file's position in `files`
      std::uint64_t bit = 0;
      while (ls >> bit)
        if (bit < n) rumors->set(bit);
    } else if (line.rfind("# note ", 0) == 0) {
      meta->note = line.substr(std::strlen("# note "));
    } else if (line.rfind("# probe phase ", 0) == 0) {
      std::istringstream ls(line.substr(std::strlen("# probe phase ")));
      std::uint64_t t = 0, proc = 0;
      std::string phase;
      ls >> t >> proc >> phase;
      if (ls && proc < n)
        log->probes.push_back(RtProbeRecord{
            true, t, static_cast<ProcessId>(proc), intern_phase(res, phase),
            0, 0});
    } else if (line.rfind("# probe state ", 0) == 0) {
      std::istringstream ls(line.substr(std::strlen("# probe state ")));
      std::uint64_t t = 0, proc = 0, known = 0, full = 0;
      ls >> t >> proc >> known >> full;
      if (ls && proc < n)
        log->probes.push_back(RtProbeRecord{
            false, t, static_cast<ProcessId>(proc), nullptr, known, full});
    } else {
      Event e;
      const auto r = TraceRecorder::parse_line(line, &e);
      if (r == TraceRecorder::ParseResult::kEvent) {
        log->events.push_back(e);
      } else if (r == TraceRecorder::ParseResult::kError) {
        *error = "unparsable line in " + path + ": " + line;
        return false;
      }
    }
  }
  if (!saw_header) {
    *error = "no worker header in " + path + " (worker died mid-run?)";
    return false;
  }
  log->bytes = meta->bytes;
  log->dropped = meta->dropped;
  return true;
}

// --- coordinator socket helpers ------------------------------------------

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

int open_coordinator_socket(std::uint16_t* port) {
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = loopback_addr(0);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

void send_to(int fd, std::uint16_t port, const std::vector<std::uint8_t>& b) {
  const sockaddr_in addr = loopback_addr(port);
  (void)::sendto(fd, b.data(), b.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
}

std::string self_exe_path() {
  char buf[4096];
  const ssize_t got = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (got <= 0) return std::string();
  buf[got] = '\0';
  return std::string(buf);
}

}  // namespace

// --- worker ---------------------------------------------------------------

int run_rt_udp_worker(const RtConfig& config, ProcessId worker,
                      std::uint16_t coord_port, const std::string& trace_out) {
  const GossipSpec& spec = config.spec;
  if (spec.n == 0 || worker >= spec.n || coord_port == 0 || trace_out.empty())
    return 2;
  const auto n = spec.n;
  const ProcessId p = worker;
  const Time budget =
      spec.max_steps != 0 ? spec.max_steps : default_step_budget(spec);

  auto processes = make_gossip_processes(spec);
  auto* gp = dynamic_cast<GossipProcess*>(processes[p].get());
  AG_ASSERT_MSG(gp != nullptr, "rt runtime requires GossipProcess instances");

  UdpTransportConfig tc;
  tc.n = n;
  tc.local = {p};
  tc.faults = config.wire_faults;
  UdpTransport transport(std::move(tc));

  // Every worker computes the identical crash schedule: make_fault_plan is
  // pure in (inject, n, f, horizon, seed).
  const FaultInjector faults(
      make_fault_plan(config.inject, n, spec.f, spec.crash_horizon, spec.seed),
      spec.d, spec.delta);

  // --- handshake: Hello until PeerTable, then wait for Start --------------
  std::vector<std::uint8_t> hello;
  wire::encode_hello_frame(&hello, wire::HelloFrame{p});
  std::vector<UdpTransport::ControlMsg> msgs;
  bool have_table = false;
  bool started = false;
  const Stopwatch handshake_watch;
  while (!started) {
    if (!have_table) transport.send_control(p, coord_port, hello);
    sleep_ms(5);
    msgs.clear();
    transport.take_control(p, &msgs);
    for (const auto& m : msgs) {
      if (m.type == wire::FrameType::kPeerTable && !have_table) {
        wire::PeerTableFrame table;
        if (wire::decode_peer_table_frame(m.bytes.data(), m.bytes.size(),
                                          &table) == wire::DecodeError::kOk &&
            table.ports.size() == n) {
          for (ProcessId q = 0; q < n; ++q)
            if (q != p) transport.set_peer(q, table.ports[q]);
          have_table = true;
        }
      } else if (m.type == wire::FrameType::kStart && have_table) {
        started = true;
      }
    }
    if (handshake_watch.elapsed_ms() > 30000.0) return 4;
  }

  // --- step loop: the shared step, plus this worker's status counters -----
  const TickClock clock(config.tick_us);
  RtProcessLog log;
  RtStepper stepper(config, p, *gp, faults, transport, &log);
  std::uint64_t sends = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t discarded = 0;
  bool crashed = false;
  bool shutdown = false;
  bool timed_out = false;
  // Outlive the coordinator's own budget-tick deadline by a wide margin:
  // shutdown normally arrives as a frame, this is the safety net.
  const Time hard_deadline = budget * 2 + 4096;
  const Time status_every = std::max<Time>(1, 20000 / std::max<std::uint64_t>(
                                                           1, config.tick_us));
  Time next_status = 0;

  while (!shutdown) {
    if (!crashed) {
      clock.sleep_until_tick(stepper.next_target());
      const RtStepResult r = stepper.step(clock.now_tick());
      sends += r.sent;
      deliveries += r.delivered;
      discarded += r.refused + r.discarded;
      crashed = r.crashed;
    } else {
      // Crashed: the model process is gone, but its transport endpoint
      // still acks, discards and retransmits so in-flight envelopes settle.
      clock.sleep_until_tick(clock.now_tick() + 1);
    }

    const Time now_tick = clock.now_tick();
    transport.service(now_tick);
    discarded += transport.reap_discarded();

    msgs.clear();
    transport.take_control(p, &msgs);
    for (const auto& m : msgs)
      if (m.type == wire::FrameType::kShutdown) shutdown = true;

    if (now_tick >= next_status) {
      wire::StatusFrame st;
      st.pid = p;
      st.quiescent = gp->quiescent();
      st.crashed = crashed;
      st.steps = stepper.steps();
      st.sends = sends;
      st.deliveries = deliveries;
      st.discarded = discarded;
      std::vector<std::uint8_t> bytes;
      wire::encode_status_frame(&bytes, st);
      transport.send_control(p, coord_port, bytes);
      next_status = now_tick + status_every;
    }
    if (now_tick > hard_deadline) {
      timed_out = true;
      break;
    }
  }

  WorkerMeta meta;
  meta.worker = p;
  meta.crashed = crashed;
  meta.quiescent = gp->quiescent();
  meta.timed_out = timed_out;
  meta.bytes = log.bytes;
  meta.dropped = log.dropped;
  meta.steps = stepper.steps();
  meta.note = gp->final_note();
  const bool wrote = write_worker_file(trace_out, meta, gp->rumors(), log);

  std::vector<std::uint8_t> bye;
  wire::encode_bye_frame(&bye, p);
  transport.send_control(p, coord_port, bye);

  if (!wrote) return 5;
  return timed_out ? 3 : 0;
}

// --- coordinator ----------------------------------------------------------

MultiprocResult run_realtime_udp(const MultiprocConfig& config) {
  MultiprocResult res;
  const RtConfig& rt = config.rt;
  const GossipSpec& spec = rt.spec;
  AG_ASSERT_MSG(spec.n > 0, "rt run needs at least one process");
  AG_ASSERT_MSG(spec.f < spec.n, "crash budget must leave a live process");
  const auto n = spec.n;
  const Time budget =
      spec.max_steps != 0 ? spec.max_steps : default_step_budget(spec);
  const Stopwatch wall;
  const auto fail = [&](const std::string& msg) { res.errors.push_back(msg); };

  std::string dir = config.work_dir;
  bool made_dir = false;
  if (dir.empty()) {
    char tmpl[] = "/tmp/asyncgossip-rt.XXXXXX";
    char* got = ::mkdtemp(tmpl);
    if (got == nullptr) {
      fail(std::string("mkdtemp: ") + std::strerror(errno));
      return res;
    }
    dir = got;
    made_dir = true;
  }

  std::uint16_t coord_port = 0;
  const int fd = open_coordinator_socket(&coord_port);
  if (fd < 0) {
    fail(std::string("coordinator socket: ") + std::strerror(errno));
    return res;
  }

  std::string exe = config.exe_path.empty() ? self_exe_path()
                                            : config.exe_path;
  if (exe.empty()) {
    fail("cannot resolve /proc/self/exe");
    ::close(fd);
    return res;
  }

  // --- spawn the workers --------------------------------------------------
  std::vector<pid_t> pids(n, -1);
  std::vector<std::string> files(n);
  for (ProcessId p = 0; p < n; ++p) {
    files[p] = dir + "/worker-" + std::to_string(p) + ".trace";
    std::vector<std::string> argv_str;
    argv_str.push_back(exe);
    for (const std::string& a : config.worker_args) argv_str.push_back(a);
    argv_str.push_back("--worker");
    argv_str.push_back(std::to_string(p));
    argv_str.push_back("--coord-port");
    argv_str.push_back(std::to_string(coord_port));
    argv_str.push_back("--trace-out");
    argv_str.push_back(files[p]);
    std::vector<char*> argv;
    argv.reserve(argv_str.size() + 1);
    for (std::string& a : argv_str) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pids[p], exe.c_str(), nullptr, nullptr,
                                 argv.data(), environ);
    if (rc != 0) {
      fail("posix_spawn worker " + std::to_string(p) + ": " +
           std::strerror(rc));
      pids[p] = -1;
    }
  }

  // --- protocol loop ------------------------------------------------------
  std::vector<std::uint16_t> ports(n, 0);
  std::size_t ports_known = 0;
  std::vector<wire::StatusFrame> latest(n);
  std::vector<std::uint8_t> status_seen(n, 0);
  std::size_t status_count = 0;
  bool spawn_failed = false;
  for (const pid_t pid : pids) spawn_failed = spawn_failed || pid < 0;

  std::vector<std::uint8_t> table_bytes;
  std::vector<std::uint8_t> start_bytes;
  wire::encode_signal_frame(&start_bytes, wire::FrameType::kStart);

  const auto drain_socket = [&] {
    std::uint8_t buf[65536];
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    while (true) {
      src_len = sizeof(src);
      const ssize_t got =
          ::recvfrom(fd, buf, sizeof(buf), MSG_DONTWAIT,
                     reinterpret_cast<sockaddr*>(&src), &src_len);
      if (got < 0) break;
      wire::FrameType type;
      if (wire::peek_type(buf, static_cast<std::size_t>(got), &type) !=
          wire::DecodeError::kOk)
        continue;
      if (type == wire::FrameType::kHello) {
        wire::HelloFrame h;
        if (wire::decode_hello_frame(buf, static_cast<std::size_t>(got),
                                     &h) == wire::DecodeError::kOk &&
            h.pid < n && ports[h.pid] == 0) {
          ports[h.pid] = ntohs(src.sin_port);
          ++ports_known;
        }
      } else if (type == wire::FrameType::kStatus) {
        wire::StatusFrame st;
        if (wire::decode_status_frame(buf, static_cast<std::size_t>(got),
                                      &st) == wire::DecodeError::kOk &&
            st.pid < n) {
          latest[st.pid] = st;
          if (status_seen[st.pid] == 0) {
            status_seen[st.pid] = 1;
            ++status_count;
          }
        }
      }
      // kBye just drains; worker exit is confirmed by waitpid below.
    }
  };

  const auto reap_exits = [&](bool block) {
    std::size_t exited = 0;
    for (ProcessId p = 0; p < n; ++p) {
      if (pids[p] < 0) {
        ++exited;
        continue;
      }
      int st = 0;
      const pid_t got = ::waitpid(pids[p], &st, block ? 0 : WNOHANG);
      if (got == pids[p]) {
        if (!WIFEXITED(st) || WEXITSTATUS(st) != 0)
          fail("worker " + std::to_string(p) + " exited " +
               (WIFEXITED(st) ? std::to_string(WEXITSTATUS(st))
                              : std::string("on signal ") +
                                    std::to_string(WTERMSIG(st))));
        pids[p] = -1;
        ++exited;
      }
    }
    return exited;
  };

  bool completed = false;
  bool protocol_failed = spawn_failed;
  bool handshaken = false;
  if (!spawn_failed) {
    // Hello phase: learn every worker's data port from its Hello source.
    const Stopwatch hs_watch;
    while (ports_known < n) {
      drain_socket();
      sleep_ms(5);
      if (hs_watch.elapsed_ms() > 30000.0) break;
    }
    handshaken = ports_known == n;
    if (!handshaken) {
      fail("handshake timeout: " + std::to_string(ports_known) + "/" +
           std::to_string(n) + " workers joined");
      protocol_failed = true;
    }
  }

  if (handshaken) {
    wire::PeerTableFrame table;
    table.ports = ports;
    wire::encode_peer_table_frame(&table_bytes, table);

    // Start phase + quiet monitor. The run is declared quiet when two
    // status sweeps >= 100ms apart agree: every worker quiescent or
    // crashed, the network conserved (sends == deliveries + discarded),
    // and the per-worker counter vectors unchanged — steps excluded, since
    // idle stepping continues forever.
    const TickClock clock(rt.tick_us);
    std::vector<wire::StatusFrame> quiet_snapshot;
    double last_broadcast_ms = -1e9;
    double last_sweep_ms = 0.0;
    while (true) {
      drain_socket();
      const double now_ms = wall.elapsed_ms();
      if (status_count < n && now_ms - last_broadcast_ms >= 20.0) {
        // A worker with no Status yet may still lack the table or Start;
        // repeat both (duplicates are idempotent on the worker side).
        for (ProcessId p = 0; p < n; ++p) {
          send_to(fd, ports[p], table_bytes);
          send_to(fd, ports[p], start_bytes);
        }
        last_broadcast_ms = now_ms;
      }
      if (status_count == n && now_ms - last_sweep_ms >= 100.0) {
        last_sweep_ms = now_ms;
        bool quiet = true;
        std::uint64_t total_sends = 0, total_deliv = 0, total_disc = 0;
        for (ProcessId p = 0; p < n; ++p) {
          const wire::StatusFrame& st = latest[p];
          if (!st.quiescent && !st.crashed) quiet = false;
          total_sends += st.sends;
          total_deliv += st.deliveries;
          total_disc += st.discarded;
        }
        quiet = quiet && total_sends == total_deliv + total_disc;
        if (quiet) {
          bool same = quiet_snapshot.size() == n;
          for (ProcessId p = 0; same && p < n; ++p)
            same = quiet_snapshot[p].sends == latest[p].sends &&
                   quiet_snapshot[p].deliveries == latest[p].deliveries &&
                   quiet_snapshot[p].discarded == latest[p].discarded &&
                   quiet_snapshot[p].crashed == latest[p].crashed;
          if (same) {
            completed = true;
            break;
          }
          quiet_snapshot = latest;
        } else {
          quiet_snapshot.clear();
        }
      }
      if (reap_exits(/*block=*/false) > 0) {
        fail("a worker exited before shutdown");
        protocol_failed = true;
        break;
      }
      if (clock.now_tick() >= budget) break;  // honest timeout, like rt
      sleep_ms(2);
    }
  }

  // --- shutdown -----------------------------------------------------------
  std::vector<std::uint8_t> shutdown_bytes;
  wire::encode_signal_frame(&shutdown_bytes, wire::FrameType::kShutdown);
  const Stopwatch bye_watch;
  while (true) {
    if (handshaken)
      for (ProcessId p = 0; p < n; ++p)
        if (pids[p] >= 0) send_to(fd, ports[p], shutdown_bytes);
    drain_socket();
    std::size_t exited = reap_exits(/*block=*/false);
    if (exited == n) break;
    if (bye_watch.elapsed_ms() > 10000.0) {
      for (ProcessId p = 0; p < n; ++p)
        if (pids[p] >= 0) {
          fail("worker " + std::to_string(p) + " unresponsive; killed");
          ::kill(pids[p], SIGKILL);
        }
      reap_exits(/*block=*/true);
      protocol_failed = true;
      break;
    }
    sleep_ms(20);
  }
  ::close(fd);

  // --- parse + merge ------------------------------------------------------
  std::vector<RtProcessLog> logs(n);
  std::vector<std::uint8_t> crashed(n, 0);
  std::vector<DynamicBitset> rumors;
  rumors.reserve(n);
  for (ProcessId p = 0; p < n; ++p) rumors.emplace_back(n);
  std::vector<std::uint8_t> quiescent(n, 0);
  bool parse_ok = true;
  res.run.notes.resize(n);
  res.run.crashed.assign(n, false);
  for (ProcessId p = 0; p < n; ++p) {
    WorkerMeta meta;
    std::string error;
    if (!parse_worker_file(files[p], n, &res, &logs[p], &meta, &rumors[p],
                           &error)) {
      fail(error);
      parse_ok = false;
      continue;
    }
    if (meta.worker != p) {
      fail("worker file " + files[p] + " claims id " +
           std::to_string(meta.worker));
      parse_ok = false;
      continue;
    }
    crashed[p] = meta.crashed ? 1 : 0;
    quiescent[p] = meta.quiescent ? 1 : 0;
    res.run.notes[p] = meta.note;
    res.run.crashed[p] = meta.crashed;
    if (meta.timed_out) {
      fail("worker " + std::to_string(p) + " hit its hard deadline");
      protocol_failed = true;
    }
  }

  merge_rt_logs(n, std::move(logs), crashed, &res.run);
  res.workers_ok = !protocol_failed && parse_ok && res.errors.empty();
  res.run.outcome.completed = completed && res.workers_ok;
  res.run.outcome.wall_ms = wall.elapsed_ms();

  // Gossip property checks, from the workers' reported final rumor sets.
  if (parse_ok) {
    std::vector<const DynamicBitset*> live(n, nullptr);
    for (ProcessId p = 0; p < n; ++p)
      if (crashed[p] == 0) live[p] = &rumors[p];
    const GossipVerdict verdict = judge_rumors(live);
    res.run.outcome.gathering_ok = verdict.gathering_ok;
    res.run.outcome.majority_ok = verdict.majority_ok;
  }

  if (!config.keep_files) {
    for (const std::string& f : files) (void)std::remove(f.c_str());
    if (made_dir) (void)::rmdir(dir.c_str());
  }
  return res;
}

}  // namespace asyncgossip
