#include "sim/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <ostream>
#include <string_view>

#include "common/parse.h"

namespace asyncgossip {

void TraceRecorder::push(Event e) {
  if (events_.size() < max_events_) {
    events_.push_back(e);
  } else {
    ++dropped_;
  }
}

void TraceRecorder::on_step(Time now, ProcessId p) {
  ++steps_;
  push(Event{EventKind::kStep, now, p, kNoProcess, 0, 0, 0});
}

void TraceRecorder::on_send(const Envelope& env) {
  ++sends_;
  push(Event{EventKind::kSend, env.send_time, env.from, env.to, env.id,
             env.send_time, env.deliver_after});
}

void TraceRecorder::on_delivery(const Envelope& env, Time now) {
  ++deliveries_;
  latencies_.push_back(static_cast<double>(now - env.send_time));
  push(Event{EventKind::kDelivery, now, env.to, env.from, env.id,
             env.send_time, env.deliver_after});
}

void TraceRecorder::on_crash(Time now, ProcessId p) {
  ++crashes_;
  push(Event{EventKind::kCrash, now, p, kNoProcess, 0, 0, 0});
}

std::string TraceRecorder::format_event(const Event& e) {
  char buf[160];
  switch (e.kind) {
    case EventKind::kStep:
      std::snprintf(buf, sizeof(buf), "step %" PRIu64 " %" PRIu32, e.time,
                    e.process);
      break;
    case EventKind::kSend:
      std::snprintf(buf, sizeof(buf),
                    "send %" PRIu64 " %" PRIu64 " %" PRIu32 " %" PRIu32
                    " %" PRIu64,
                    e.time, e.message, e.process, e.peer, e.deliver_after);
      break;
    case EventKind::kDelivery:
      std::snprintf(buf, sizeof(buf),
                    "deliver %" PRIu64 " %" PRIu64 " %" PRIu32 " %" PRIu32
                    " %" PRIu64 " %" PRIu64,
                    e.time, e.message, e.peer, e.process, e.send_time,
                    e.deliver_after);
      break;
    case EventKind::kCrash:
      std::snprintf(buf, sizeof(buf), "crash %" PRIu64 " %" PRIu32, e.time,
                    e.process);
      break;
  }
  return buf;
}

TraceRecorder::ParseResult TraceRecorder::parse_line(const std::string& line,
                                                     Event* out) {
  const std::size_t start = line.find_first_not_of(" \t\r");
  if (start == std::string::npos) return ParseResult::kSkip;
  if (line[start] == '#') return ParseResult::kSkip;
  if (line.compare(start, 5, "model") == 0) return ParseResult::kSkip;

  // A keyword and at most six fields, each plain decimal digits that fit
  // the field: a sign, an id past ProcessId or a time past 2^64 - 1 is an
  // error, not a wrapped value.
  std::string_view fields[7];
  std::size_t count = 0;
  for (std::size_t pos = start; pos < line.size();) {
    const std::size_t end = std::min(line.find_first_of(" \t\r", pos),
                                     line.size());
    if (count == std::size(fields)) return ParseResult::kError;
    fields[count++] = std::string_view(line).substr(pos, end - pos);
    pos = line.find_first_not_of(" \t\r", end);
  }
  const std::string_view kind = fields[0];
  Event e;
  bool ok = false;
  if (kind == "step" && count == 3) {
    e.kind = EventKind::kStep;
    ok = parse_uint(fields[1], &e.time) && parse_uint(fields[2], &e.process);
  } else if (kind == "send" && count == 6) {
    e.kind = EventKind::kSend;
    ok = parse_uint(fields[1], &e.time) && parse_uint(fields[2], &e.message) &&
         parse_uint(fields[3], &e.process) && parse_uint(fields[4], &e.peer) &&
         parse_uint(fields[5], &e.deliver_after);
    e.send_time = e.time;
  } else if (kind == "deliver" && count == 7) {
    e.kind = EventKind::kDelivery;
    ok = parse_uint(fields[1], &e.time) && parse_uint(fields[2], &e.message) &&
         parse_uint(fields[3], &e.peer) && parse_uint(fields[4], &e.process) &&
         parse_uint(fields[5], &e.send_time) &&
         parse_uint(fields[6], &e.deliver_after);
  } else if (kind == "crash" && count == 3) {
    e.kind = EventKind::kCrash;
    ok = parse_uint(fields[1], &e.time) && parse_uint(fields[2], &e.process);
  }
  if (!ok) return ParseResult::kError;
  *out = e;
  return ParseResult::kEvent;
}

void TraceRecorder::write_trace(std::ostream& os, std::size_t n, Time d,
                                Time delta, std::size_t f) const {
  write_trace_v1(os, events_, n, d, delta, f, dropped_);
}

void write_trace_v1(std::ostream& os,
                    const std::vector<TraceRecorder::Event>& events,
                    std::size_t n, Time d, Time delta, std::size_t f,
                    std::uint64_t dropped) {
  os << "# asyncgossip trace v1\n";
  os << "model n=" << n << " d=" << d << " delta=" << delta << " f=" << f
     << '\n';
  if (dropped != 0)
    os << "# WARNING: " << dropped
       << " records dropped by the bounded recorder; this trace is a prefix\n";
  for (const TraceRecorder::Event& e : events)
    os << TraceRecorder::format_event(e) << '\n';
}

void replay_event(const TraceRecorder::Event& e, EngineObserver* observer) {
  using EventKind = TraceRecorder::EventKind;
  Envelope env;
  env.id = e.message;
  env.send_time = e.send_time;
  env.deliver_after = e.deliver_after;
  switch (e.kind) {
    case EventKind::kStep:
      observer->on_step(e.time, e.process);
      break;
    case EventKind::kSend:
      env.from = e.process;
      env.to = e.peer;
      observer->on_send(env);
      break;
    case EventKind::kDelivery:
      env.from = e.peer;
      env.to = e.process;
      observer->on_delivery(env, e.time);
      break;
    case EventKind::kCrash:
      observer->on_crash(e.time, e.process);
      break;
  }
}

Summary TraceRecorder::latency_summary() const { return summarize(latencies_); }

std::string TraceRecorder::render_timeline(std::size_t n,
                                           std::size_t max_processes,
                                           std::size_t max_time) const {
  const std::size_t rows = std::min(n, max_processes);
  // Cell codes: bit0 step, bit1 send, bit2 delivery, bit3 crash.
  std::vector<std::vector<std::uint8_t>> grid(
      rows, std::vector<std::uint8_t>(max_time, 0));
  std::vector<Time> crash_time(rows, kTimeMax);
  for (const Event& e : events_) {
    if (e.process >= rows) continue;
    if (e.kind == EventKind::kCrash && e.process < rows)
      crash_time[e.process] = std::min(crash_time[e.process], e.time);
    if (e.time >= max_time) continue;
    auto& cell = grid[e.process][e.time];
    switch (e.kind) {
      case EventKind::kStep:
        cell |= 1;
        break;
      case EventKind::kSend:
        cell |= 2;
        break;
      case EventKind::kDelivery:
        cell |= 4;
        break;
      case EventKind::kCrash:
        cell |= 8;
        break;
    }
  }
  std::string out;
  out.reserve(rows * (max_time + 12));
  for (std::size_t p = 0; p < rows; ++p) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%4zu ", p);
    out += buf;
    for (std::size_t t = 0; t < max_time; ++t) {
      const std::uint8_t c = grid[p][t];
      char ch;
      if (c & 8) {
        ch = 'X';
      } else if (crash_time[p] != kTimeMax && t > crash_time[p]) {
        ch = ' ';
      } else if ((c & 2) && (c & 4)) {
        ch = 'b';
      } else if (c & 2) {
        ch = 's';
      } else if (c & 4) {
        ch = 'd';
      } else if (c & 1) {
        ch = 'o';
      } else {
        ch = '.';
      }
      out += ch;
    }
    out += '\n';
  }
  if (n > rows) out += "  ... (" + std::to_string(n - rows) + " more)\n";
  return out;
}

void TraceRecorder::clear() {
  events_.clear();
  steps_ = sends_ = deliveries_ = crashes_ = dropped_ = 0;
  latencies_.clear();
}

}  // namespace asyncgossip
