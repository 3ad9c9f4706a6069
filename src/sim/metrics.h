// Complexity accounting: exactly the measures the paper reports.
//
// Time complexity is measured in discrete global steps; message complexity
// is the number of point-to-point messages sent by all processes combined
// (the paper counts messages, not bits). The engine also records the
// *realized* per-execution bounds d and delta so benches can report time in
// units of (d + delta).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace asyncgossip {

class Metrics {
 public:
  explicit Metrics(std::size_t n)
      : per_process_sent_(n, 0), per_process_received_(n, 0) {}

  /// Zeroes every counter for a run over n processes, keeping the
  /// per-process buffers.
  void reset(std::size_t n) {
    Metrics zeroed(0);
    zeroed.per_process_sent_ = std::move(per_process_sent_);
    zeroed.per_process_received_ = std::move(per_process_received_);
    zeroed.per_process_sent_.assign(n, 0);
    zeroed.per_process_received_.assign(n, 0);
    *this = std::move(zeroed);
  }

  // --- recording (engine only) ------------------------------------------
  // Defined inline: these run once per message / per step on the engine hot
  // path, and a cross-TU call would cost more than the increments they do.
  void record_send(ProcessId from, Time now, std::size_t payload_bytes) {
    ++messages_sent_;
    bytes_sent_ += payload_bytes;
    ++per_process_sent_[from];
    last_send_time_ = now;
    any_send_ = true;
  }
  /// `prev_step` is the receiver's previous local-step time (kTimeMax if it
  /// never stepped before): per the paper's definition, a message witnesses
  /// a delay bound of prev_step - send_time + 1 — the wait after the
  /// receiver's last pre-delivery step is attributable to delta, not d.
  void record_delivery(ProcessId to, Time send_time, Time prev_step,
                       Time now) {
    ++messages_delivered_;
    ++per_process_received_[to];
    Time witnessed = 1;
    if (prev_step != kTimeMax && prev_step > send_time)
      witnessed = prev_step - send_time + 1;
    witnessed = std::min(witnessed, now - send_time);
    realized_d_ = std::max(realized_d_, witnessed);
  }
  void record_gap(Time gap) { realized_delta_ = std::max(realized_delta_, gap); }
  void record_local_step() { ++local_steps_; }
  void record_crash() { ++crashes_; }
  /// End-of-step sample of the number of messages in the network; the
  /// max_in_flight() gauge is the maximum over these samples.
  void record_in_flight(std::size_t in_flight) {
    max_in_flight_ = std::max(max_in_flight_, in_flight);
  }

  // --- reporting ----------------------------------------------------------
  /// Total point-to-point messages sent.
  std::uint64_t messages_sent() const { return messages_sent_; }
  /// Total payload bytes sent — the bit-complexity measure (/8) the paper
  /// poses as future work (Section 7).
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::uint64_t messages_sent_by(ProcessId p) const {
    return per_process_sent_[p];
  }
  const std::vector<std::uint64_t>& per_process_sent() const {
    return per_process_sent_;
  }
  std::uint64_t messages_received_by(ProcessId p) const {
    return per_process_received_[p];
  }
  const std::vector<std::uint64_t>& per_process_received() const {
    return per_process_received_;
  }

  /// Peak network load: the largest end-of-step count of sent-but-undelivered
  /// messages addressed to live processes (a crash voids its mailbox).
  std::size_t max_in_flight() const { return max_in_flight_; }

  /// Global time of the most recent send; the natural "the system went
  /// quiet at ..." stamp used as gossip completion time.
  Time last_send_time() const { return last_send_time_; }
  bool any_send() const { return any_send_; }

  /// Largest observed delivery delay (receiver step time - send time).
  Time realized_d() const { return realized_d_; }
  /// Largest observed gap between consecutive local steps of a live process.
  Time realized_delta() const { return realized_delta_; }

  std::uint64_t local_steps() const { return local_steps_; }
  std::uint64_t crashes() const { return crashes_; }

 private:
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t local_steps_ = 0;
  std::uint64_t crashes_ = 0;
  Time last_send_time_ = 0;
  bool any_send_ = false;
  Time realized_d_ = 0;
  Time realized_delta_ = 0;
  std::size_t max_in_flight_ = 0;
  std::vector<std::uint64_t> per_process_sent_;
  std::vector<std::uint64_t> per_process_received_;
};

}  // namespace asyncgossip
