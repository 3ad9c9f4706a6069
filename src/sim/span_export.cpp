#include "sim/span_export.h"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>

#include "common/stats.h"

namespace asyncgossip {

namespace {

constexpr const char* kFlightMagic = "# asyncgossip flight v1";

/// Prints a nanosecond count as microseconds with fixed three decimals
/// ("1234.567") — digit-exact regardless of locale or double rounding.
std::string ns_as_us(std::uint64_t ns) {
  std::ostringstream os;
  os << ns / 1000 << '.';
  const std::uint64_t frac = ns % 1000;
  os << static_cast<char>('0' + frac / 100)
     << static_cast<char>('0' + (frac / 10) % 10)
     << static_cast<char>('0' + frac % 10);
  return os.str();
}

FlightKind record_kind(const FlightRecord& r) {
  return static_cast<FlightKind>(r.kind);
}

}  // namespace

void write_flight_log(std::ostream& os, const FlightLogHeader& header,
                      const std::vector<FlightRecord>& records) {
  os << kFlightMagic << '\n';
  os << "model n=" << header.n << " tick_us=" << header.tick_us
     << " realized_d=" << header.realized_d
     << " realized_delta=" << header.realized_delta
     << " dropped=" << header.dropped << '\n';
  for (const FlightRecord& r : records) {
    switch (record_kind(r)) {
      case FlightKind::kSend:
        os << "send " << r.a << ' ' << r.link_from() << ' ' << r.link_to()
           << ' ' << r.tick << ' ' << r.wall_ns << ' ' << r.extra << '\n';
        break;
      case FlightKind::kDeliver:
        os << "deliver " << r.a << ' ' << r.link_from() << ' '
           << r.link_to() << ' ' << r.tick << ' ' << r.wall_ns << ' '
           << r.extra << '\n';
        break;
      case FlightKind::kZone:
        os << "zone "
           << flight_zone_name(static_cast<FlightZoneId>(r.a)) << ' '
           << r.b << ' ' << r.tick << ' ' << r.wall_ns << ' ' << r.extra
           << '\n';
        break;
    }
  }
}

bool read_flight_log(std::istream& is, FlightLogHeader* header,
                     std::vector<FlightRecord>* records,
                     std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  std::string line;
  if (!std::getline(is, line) || line != kFlightMagic)
    return fail("missing flight-log magic line");
  if (!std::getline(is, line) || line.rfind("model ", 0) != 0)
    return fail("missing model header line");
  {
    std::istringstream hs(line.substr(6));
    std::string field;
    while (hs >> field) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos)
        return fail("malformed model field: " + field);
      const std::string key = field.substr(0, eq);
      std::uint64_t value = 0;
      try {
        value = std::stoull(field.substr(eq + 1));
      } catch (const std::exception&) {
        return fail("malformed model value: " + field);
      }
      if (key == "n") header->n = value;
      else if (key == "tick_us") header->tick_us = value;
      else if (key == "realized_d") header->realized_d = value;
      else if (key == "realized_delta") header->realized_delta = value;
      else if (key == "dropped") header->dropped = value;
      else return fail("unknown model field: " + key);
    }
  }
  std::size_t line_no = 2;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    FlightRecord r;
    const auto bad = [&] {
      return fail("malformed record at line " + std::to_string(line_no));
    };
    if (kind == "send" || kind == "deliver") {
      std::uint64_t id = 0, from = 0, to = 0;
      if (!(ls >> id >> from >> to >> r.tick >> r.wall_ns >> r.extra))
        return bad();
      r.kind = static_cast<std::uint64_t>(
          kind == "send" ? FlightKind::kSend : FlightKind::kDeliver);
      r.a = id;
      r.b = FlightRecord::pack_link(static_cast<std::uint32_t>(from),
                                    static_cast<std::uint32_t>(to));
    } else if (kind == "zone") {
      std::string name;
      FlightZoneId zone;
      if (!(ls >> name >> r.b >> r.tick >> r.wall_ns >> r.extra))
        return bad();
      if (!flight_zone_from_name(name.c_str(), &zone))
        return fail("unknown zone name at line " + std::to_string(line_no) +
                    ": " + name);
      r.kind = static_cast<std::uint64_t>(FlightKind::kZone);
      r.a = static_cast<std::uint64_t>(zone);
    } else {
      return fail("unknown record kind at line " + std::to_string(line_no) +
                  ": " + kind);
    }
    records->push_back(r);
  }
  return true;
}

void write_chrome_trace(std::ostream& os, const FlightLogHeader& header,
                        const std::vector<FlightRecord>& records) {
  std::uint64_t epoch = ~0ULL;
  std::set<std::uint64_t> actors;
  for (const FlightRecord& r : records) {
    epoch = std::min(epoch, r.wall_ns);
    switch (record_kind(r)) {
      case FlightKind::kSend:
        actors.insert(r.link_from());
        break;
      case FlightKind::kDeliver:
        actors.insert(r.link_to());
        break;
      case FlightKind::kZone:
        actors.insert(r.b);
        break;
    }
  }
  if (records.empty()) epoch = 0;

  os << "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  os << "\"schema\": \"asyncgossip-spans-v1\"";
  os << ", \"n\": \"" << header.n << "\"";
  os << ", \"tick_us\": \"" << header.tick_us << "\"";
  os << ", \"realized_d\": \"" << header.realized_d << "\"";
  os << ", \"realized_delta\": \"" << header.realized_delta << "\"";
  os << ", \"dropped\": \"" << header.dropped << "\"";
  os << "},\n\"traceEvents\": [";

  bool first = true;
  const auto sep = [&] {
    os << (first ? "\n" : ",\n");
    first = false;
  };
  for (std::uint64_t actor : actors) {
    sep();
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": "
       << actor << ", \"args\": {\"name\": \"proc-" << actor << "\"}}";
  }
  for (const FlightRecord& r : records) {
    const std::string ts = ns_as_us(r.wall_ns - epoch);
    switch (record_kind(r)) {
      case FlightKind::kSend:
        sep();
        os << "{\"name\": \"msg " << r.a
           << "\", \"cat\": \"msg\", \"ph\": \"b\", \"id\": " << r.a
           << ", \"pid\": 0, \"tid\": " << r.link_from() << ", \"ts\": "
           << ts << ", \"args\": {\"from\": " << r.link_from()
           << ", \"to\": " << r.link_to() << ", \"send_tick\": " << r.tick
           << ", \"deliver_after_tick\": " << r.extra << "}}";
        break;
      case FlightKind::kDeliver:
        sep();
        os << "{\"name\": \"msg " << r.a
           << "\", \"cat\": \"msg\", \"ph\": \"e\", \"id\": " << r.a
           << ", \"pid\": 0, \"tid\": " << r.link_to() << ", \"ts\": " << ts
           << ", \"args\": {\"deliver_tick\": " << r.tick
           << ", \"send_tick\": " << r.extra << "}}";
        break;
      case FlightKind::kZone:
        sep();
        os << "{\"name\": \""
           << flight_zone_name(static_cast<FlightZoneId>(r.a))
           << "\", \"cat\": \"zone\", \"ph\": \"X\", \"pid\": 0, \"tid\": "
           << r.b << ", \"ts\": " << ts << ", \"dur\": " << ns_as_us(r.extra)
           << ", \"args\": {\"tick\": " << r.tick << "}}";
        break;
    }
  }
  os << "\n]\n}\n";
}

SpanSummary summarize_spans(const std::vector<FlightRecord>& records) {
  SpanSummary s;
  std::map<std::uint64_t, std::uint64_t> send_wall;  // message id → wall_ns
  std::uint64_t zone_count[kFlightZoneCount] = {};
  std::uint64_t zone_ns[kFlightZoneCount] = {};
  std::vector<std::uint64_t> latencies_ns;
  for (const FlightRecord& r : records) {
    switch (record_kind(r)) {
      case FlightKind::kSend:
        ++s.sends;
        send_wall[r.a] = r.wall_ns;
        break;
      case FlightKind::kDeliver: {
        ++s.delivers;
        const auto it = send_wall.find(r.a);
        if (it != send_wall.end() && r.wall_ns >= it->second) {
          ++s.paired;
          latencies_ns.push_back(r.wall_ns - it->second);
        }
        break;
      }
      case FlightKind::kZone: {
        const auto z = r.a;
        if (z < kFlightZoneCount) {
          ++zone_count[z];
          zone_ns[z] += r.extra;
        }
        break;
      }
    }
  }
  std::sort(latencies_ns.begin(), latencies_ns.end());
  const auto pct = [&](double q) {
    return static_cast<double>(quantile(latencies_ns, q)) / 1000.0;
  };
  s.p50_us = pct(0.50);
  s.p95_us = pct(0.95);
  s.p99_us = pct(0.99);
  s.max_us = latencies_ns.empty()
                 ? 0.0
                 : static_cast<double>(latencies_ns.back()) / 1000.0;
  for (std::size_t z = 0; z < kFlightZoneCount; ++z) {
    if (zone_count[z] == 0) continue;
    ZoneTotal zt;
    zt.name = flight_zone_name(static_cast<FlightZoneId>(z));
    zt.count = zone_count[z];
    zt.total_ms = static_cast<double>(zone_ns[z]) / 1e6;
    s.zones.push_back(zt);
  }
  return s;
}

}  // namespace asyncgossip
