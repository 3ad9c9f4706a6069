// Merging per-process rt records into one auditable trace.
//
// Both real-time drivers — threaded (rt/driver.h) and multi-process
// (rt/multiproc.h) — end a run holding one record per gossip process:
// its events in local time order, its probe reports, and its counters.
// This module is the single implementation of what happens next, so the
// two drivers cannot drift: stable-sort by (time, process), renumber
// message ids to be strictly monotone in merged send order (the auditor's
// id contract — raw ids are only unique, not dense: both drivers run the
// shared step (rt/step.h), which namespaces a per-process counter by pid),
// and compute the realized bounds and outcome counters from the merged
// stream.
//
// Realized d is the maximum of deliver_after - send_time over send *and*
// delivery events: over a socket transport the receiver may re-floor a
// stamp (rt/udp_transport.h), so the delivery-side stamp can exceed the
// sender-recorded one, and the auditor checks the bound at both events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rt/driver.h"
#include "sim/trace.h"

namespace asyncgossip {

/// Everything one gossip process contributes to the merge. Events and
/// probes must each be in local time order (they are recorded that way).
struct RtProcessLog {
  std::vector<TraceRecorder::Event> events;
  std::vector<RtProbeRecord> probes;
  std::uint64_t bytes = 0;
  std::size_t dropped = 0;
};

/// Merges `logs` into result->events / result->probes, renumbers message
/// ids, and fills the outcome counters and realized bounds. Does not touch
/// completed / wall_ms / gathering_ok / majority_ok — those need run
/// context the merge does not have.
void merge_rt_logs(std::size_t n, std::vector<RtProcessLog> logs,
                   const std::vector<std::uint8_t>& crashed,
                   RtRunResult* result);

}  // namespace asyncgossip
