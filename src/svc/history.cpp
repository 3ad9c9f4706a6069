#include "svc/history.h"

#include <algorithm>
#include <istream>
#include <map>
#include <sstream>

#include "svc/kv.h"

namespace asyncgossip {
namespace svc {

namespace {

/// Unused positions (a get's value, a put's comparand, a miss's read value)
/// are written as the placeholder "-". Parsing is op/found-aware instead of
/// textual: a "-" in a *meaningful* position is the literal token (the CAS
/// absent-comparand in kv.cpp is exactly that), and meaningful fields are
/// never empty (token_ok), so the round-trip is lossless.
std::string pack(const std::string& s) { return s.empty() ? "-" : s; }

}  // namespace

std::string encode_log_entry(const CommittedEntry& entry) {
  std::ostringstream os;
  os << entry.seq << ' ' << to_string(entry.cmd.op) << ' ' << entry.cmd.client
     << ' ' << entry.cmd.client_seq << ' ' << pack(entry.cmd.key) << ' '
     << pack(entry.cmd.value) << ' ' << pack(entry.cmd.expected) << ' '
     << (entry.ok ? 1 : 0) << ' ' << (entry.found ? 1 : 0) << ' '
     << pack(entry.read_value);
  return os.str();
}

bool parse_log_entry(const std::string& line, CommittedEntry* out) {
  std::istringstream is(line);
  std::string op, key, value, expected, read_value;
  int ok = 0, found = 0;
  if (!(is >> out->seq >> op >> out->cmd.client >> out->cmd.client_seq >>
        key >> value >> expected >> ok >> found >> read_value))
    return false;
  if (!op_from_string(op, &out->cmd.op)) return false;
  out->cmd.key = key;
  out->cmd.value = out->cmd.op == SvcOp::kGet ? std::string() : value;
  out->cmd.expected = out->cmd.op == SvcOp::kCas ? expected : std::string();
  out->ok = ok != 0;
  out->found = found != 0;
  out->read_value = out->cmd.op == SvcOp::kGet && out->found
                        ? read_value
                        : std::string();
  std::string extra;
  return !(is >> extra);
}

std::string encode_observation(const Observation& obs) {
  std::ostringstream os;
  os << to_string(obs.cmd.op) << ' ' << obs.cmd.client << ' '
     << obs.cmd.client_seq << ' ' << pack(obs.cmd.key) << ' '
     << pack(obs.cmd.value) << ' ' << pack(obs.cmd.expected) << ' '
     << (obs.result.ok ? 1 : 0) << ' ' << (obs.result.unavailable ? 1 : 0)
     << ' ' << obs.result.seq << ' ' << (obs.result.found ? 1 : 0) << ' '
     << pack(obs.result.value);
  return os.str();
}

bool parse_observation(const std::string& line, Observation* out) {
  std::istringstream is(line);
  std::string op, key, value, expected, rvalue;
  int ok = 0, unavailable = 0, found = 0;
  if (!(is >> op >> out->cmd.client >> out->cmd.client_seq >> key >> value >>
        expected >> ok >> unavailable >> out->result.seq >> found >> rvalue))
    return false;
  if (!op_from_string(op, &out->cmd.op)) return false;
  out->cmd.key = key;
  out->cmd.value = out->cmd.op == SvcOp::kGet ? std::string() : value;
  out->cmd.expected = out->cmd.op == SvcOp::kCas ? expected : std::string();
  out->result.ok = ok != 0;
  out->result.unavailable = unavailable != 0;
  out->result.found = found != 0;
  out->result.value = out->result.found ? rvalue : std::string();
  std::string extra;
  return !(is >> extra);
}

namespace {

bool read_lines(std::istream& is, const char* header,
                const char* what,
                bool (*parse)(const std::string&, void*), void* out,
                std::string* error) {
  std::string line;
  if (!std::getline(is, line) || line.rfind(header, 0) != 0) {
    *error = std::string("missing ") + header + " header";
    return false;
  }
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    if (!parse(line, out)) {
      *error = std::string("unparsable ") + what + " line " +
               std::to_string(lineno) + ": " + line;
      return false;
    }
  }
  return true;
}

bool parse_log_into(const std::string& line, void* out) {
  CommittedEntry e;
  if (!parse_log_entry(line, &e)) return false;
  static_cast<std::vector<CommittedEntry>*>(out)->push_back(std::move(e));
  return true;
}

bool parse_obs_into(const std::string& line, void* out) {
  Observation o;
  if (!parse_observation(line, &o)) return false;
  static_cast<std::vector<Observation>*>(out)->push_back(std::move(o));
  return true;
}

}  // namespace

bool read_log(std::istream& is, std::vector<CommittedEntry>* out,
              std::string* error) {
  return read_lines(is, kLogHeader, "log", &parse_log_into, out, error);
}

bool read_observations(std::istream& is, std::vector<Observation>* out,
                       std::string* error) {
  return read_lines(is, kObsHeader, "observation", &parse_obs_into, out,
                    error);
}

HistoryReport check_history(const std::vector<CommittedEntry>& log,
                            const std::vector<Observation>& observations) {
  HistoryReport report;
  report.entries = log.size();
  report.observations = observations.size();
  const auto fail = [&](const std::string& msg) {
    report.error = msg;
    return report;
  };

  // (1) Dense, 1-based, in-order sequence numbers.
  for (std::size_t i = 0; i < log.size(); ++i)
    if (log[i].seq != i + 1)
      return fail("log seq " + std::to_string(log[i].seq) + " at position " +
                  std::to_string(i) + " (want " + std::to_string(i + 1) +
                  "): log has holes or reorderings");

  // (2) Replay through the real transition function; every recorded result
  // must match (stale reads and phantom CAS outcomes surface here).
  // The replay store lives only for this step: held while the maps below
  // are built, its nodes pin heap pages and raise the peak RSS of a
  // check over a long log.
  {
    KvStore replay;
    for (const CommittedEntry& e : log) {
      const CommandResult r = replay.apply(e.cmd);
      const std::string at = "log seq " + std::to_string(e.seq) + " (" +
                             to_string(e.cmd.op) + " " + e.cmd.key + "): ";
      if (r.ok != e.ok)
        return fail(at + "recorded ok=" + std::to_string(e.ok) +
                    " but replay says " + std::to_string(r.ok));
      if (e.cmd.op == SvcOp::kGet) {
        if (r.found != e.found)
          return fail(at + "recorded found=" + std::to_string(e.found) +
                      " but replay says " + std::to_string(r.found));
        if (r.value != e.read_value)
          return fail(at + "stale read: returned '" + e.read_value +
                      "', linearized state holds '" + r.value + "'");
      }
    }
  }

  // (3) Every acked observation matches the log at its seq; (4) per-client
  // session order along the log.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> committed;
  for (const CommittedEntry& e : log)
    committed[{e.cmd.client, e.cmd.client_seq}] = e.seq;
  std::map<std::uint64_t, std::uint64_t> last_client_seq;
  for (const Observation& o : observations) {
    const std::string at = "observation client " +
                           std::to_string(o.cmd.client) + " cseq " +
                           std::to_string(o.cmd.client_seq) + ": ";
    if (o.result.unavailable) {
      ++report.unavailable;
      // Honest unavailability: the command must NOT appear in the log.
      const auto it = committed.find({o.cmd.client, o.cmd.client_seq});
      if (it != committed.end())
        return fail(at + "acked unavailable but committed at seq " +
                    std::to_string(it->second));
      continue;
    }
    ++report.acked;
    if (o.result.seq == 0 || o.result.seq > log.size())
      return fail(at + "lost write: acked at seq " +
                  std::to_string(o.result.seq) + " but log has " +
                  std::to_string(log.size()) + " entries");
    const CommittedEntry& e = log[o.result.seq - 1];
    if (e.cmd.client != o.cmd.client || e.cmd.client_seq != o.cmd.client_seq)
      return fail(at + "lost write: log seq " + std::to_string(o.result.seq) +
                  " holds a different command");
    if (e.cmd.op != o.cmd.op || e.cmd.key != o.cmd.key ||
        e.cmd.value != o.cmd.value || e.cmd.expected != o.cmd.expected)
      return fail(at + "command mismatch against log seq " +
                  std::to_string(o.result.seq));
    if (e.ok != o.result.ok || e.found != o.result.found ||
        (o.cmd.op == SvcOp::kGet && e.read_value != o.result.value))
      return fail(at + "result mismatch against log seq " +
                  std::to_string(o.result.seq));
  }

  // (4) Session order: acked client_seqs strictly increase in log order.
  std::vector<const Observation*> acked;
  for (const Observation& o : observations)
    if (!o.result.unavailable) acked.push_back(&o);
  std::sort(acked.begin(), acked.end(),
            [](const Observation* a, const Observation* b) {
              return a->result.seq < b->result.seq;
            });
  for (const Observation* o : acked) {
    auto [it, inserted] =
        last_client_seq.emplace(o->cmd.client, o->cmd.client_seq);
    if (!inserted) {
      if (o->cmd.client_seq <= it->second)
        return fail("client " + std::to_string(o->cmd.client) +
                    " session order violated at cseq " +
                    std::to_string(o->cmd.client_seq));
      it->second = o->cmd.client_seq;
    }
  }

  report.ok = true;
  return report;
}

}  // namespace svc
}  // namespace asyncgossip
