#include "rt/merge.h"

#include <algorithm>
#include <utility>

namespace asyncgossip {

namespace {

using Event = TraceRecorder::Event;
using EventKind = TraceRecorder::EventKind;

/// (time, process) order, for events and probe records alike.
constexpr auto time_then_process = [](const auto& a, const auto& b) {
  return a.time != b.time ? a.time < b.time : a.process < b.process;
};

}  // namespace

void merge_rt_logs(std::size_t n, std::vector<RtProcessLog> logs,
                   const std::vector<std::uint8_t>& crashed,
                   RtRunResult* result) {
  for (RtProcessLog& log : logs) {
    result->events.insert(result->events.end(), log.events.begin(),
                          log.events.end());
    result->probes.insert(result->probes.end(), log.probes.begin(),
                          log.probes.end());
    result->outcome.bytes += log.bytes;
    result->events_dropped += log.dropped;
  }
  // Each per-process log is already time-ordered; a stable sort by (time,
  // process) therefore preserves every process's internal event order
  // (step before deliveries before sends before crash within one tick).
  std::stable_sort(result->events.begin(), result->events.end(),
                   time_then_process);
  std::stable_sort(result->probes.begin(), result->probes.end(),
                   time_then_process);

  // Renumber message ids to be strictly monotone in merged send order (the
  // auditor's id contract). A delivery always follows its send in time
  // order, but raw ids are merely unique, not dense — so: one pass
  // collecting (raw, merged) pairs in send order, sort by raw id, then
  // rewrite sends by the same sequential assignment and deliveries by
  // binary search. Deterministic, no hash containers (aglint AG-DET-003).
  std::vector<std::pair<MessageId, MessageId>> mapping;
  MessageId next_merged_id = 0;
  for (const Event& e : result->events)
    if (e.kind == EventKind::kSend)
      mapping.emplace_back(e.message, next_merged_id++);
  std::vector<std::pair<MessageId, MessageId>> by_raw = mapping;
  std::sort(by_raw.begin(), by_raw.end());
  next_merged_id = 0;
  for (Event& e : result->events) {
    if (e.kind == EventKind::kSend) {
      e.message = next_merged_id++;
    } else if (e.kind == EventKind::kDelivery) {
      const auto it = std::lower_bound(
          by_raw.begin(), by_raw.end(),
          std::make_pair(e.message, MessageId{0}),
          [](const std::pair<MessageId, MessageId>& a,
             const std::pair<MessageId, MessageId>& b) {
            return a.first < b.first;
          });
      if (it != by_raw.end() && it->first == e.message) e.message = it->second;
    }
  }

  // --- realized bounds and outcome counters ------------------------------
  RtOutcome& oc = result->outcome;
  std::vector<Time> first_step(n, 0);
  std::vector<Time> last_step(n, 0);
  std::vector<std::uint8_t> stepped_once(n, 0);
  Time realized_d = 1;
  Time max_gap = 1;
  for (const Event& e : result->events) {
    switch (e.kind) {
      case EventKind::kStep:
        if (stepped_once[e.process] == 0) {
          first_step[e.process] = e.time;
          stepped_once[e.process] = 1;
        } else {
          max_gap = std::max(max_gap, e.time - last_step[e.process]);
        }
        last_step[e.process] = e.time;
        ++oc.steps;
        break;
      case EventKind::kSend:
        ++oc.messages;
        oc.completion_time = e.time + 1;
        realized_d = std::max(realized_d, e.deliver_after - e.time);
        break;
      case EventKind::kDelivery:
        ++oc.deliveries;
        // The receiver-side stamp can exceed the sender-recorded one over
        // a socket transport; the realized bound must cover both.
        realized_d = std::max(realized_d, e.deliver_after - e.send_time);
        break;
      case EventKind::kCrash:
        ++oc.crashes;
        break;
    }
  }
  oc.end_time = result->events.empty() ? 0 : result->events.back().time + 1;
  oc.realized_d = realized_d;
  Time realized_delta = max_gap;
  for (ProcessId p = 0; p < n; ++p) {
    if (stepped_once[p] != 0)
      realized_delta = std::max(realized_delta, first_step[p] + 1);
    if (crashed[p] != 0) continue;
    realized_delta = std::max(realized_delta, stepped_once[p] != 0
                                                  ? oc.end_time - last_step[p]
                                                  : oc.end_time + 1);
  }
  oc.realized_delta = realized_delta;
  oc.crashes = 0;
  for (ProcessId p = 0; p < n; ++p) oc.crashes += crashed[p] != 0;
  oc.alive = n - oc.crashes;
}

}  // namespace asyncgossip
