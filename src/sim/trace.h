// Execution tracing: a bounded event log with an ASCII timeline renderer
// and delivery-latency statistics.
//
// Intended uses: debugging algorithm behaviour ("who woke whom up and
// when"), the examples' narrated output, and tests that assert causal
// structure (a delivery never precedes its send; crashed processes emit no
// further events).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/observer.h"

namespace asyncgossip {

class TraceRecorder final : public EngineObserver {
 public:
  enum class EventKind : std::uint8_t { kStep, kSend, kDelivery, kCrash };

  struct Event {
    EventKind kind;
    Time time = 0;
    ProcessId process = kNoProcess;  // actor (sender / receiver / stepper)
    ProcessId peer = kNoProcess;     // other endpoint for send/delivery
    MessageId message = 0;
    Time send_time = 0;      // sends/deliveries: when the message was sent
    Time deliver_after = 0;  // sends/deliveries: earliest legal receipt
  };

  /// Records at most `max_events` events (counters keep running after the
  /// log fills; `dropped()` reports the overflow).
  explicit TraceRecorder(std::size_t max_events = 1 << 20)
      : max_events_(max_events) {}

  void on_step(Time now, ProcessId p) override;
  void on_send(const Envelope& env) override;
  void on_delivery(const Envelope& env, Time now) override;
  void on_crash(Time now, ProcessId p) override;

  const std::vector<Event>& events() const { return events_; }
  std::uint64_t steps() const { return steps_; }
  std::uint64_t sends() const { return sends_; }
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Delivery latency (receipt time - send time) summary.
  Summary latency_summary() const;

  /// ASCII timeline: one row per process (up to `max_processes`), one
  /// column per time step (up to `max_time` columns, starting at step 0).
  /// Cell legend: '.' idle, 'o' step, 's' step+send, 'd' step+delivery,
  /// 'b' step+send+delivery, 'X' crash, ' ' after crash.
  std::string render_timeline(std::size_t n, std::size_t max_processes = 32,
                              std::size_t max_time = 96) const;

  void clear();

  // --- machine-readable trace format (consumed by tools/tracecheck) -------
  //
  // Line-oriented text, one event per line:
  //   step <t> <p>
  //   send <t> <id> <from> <to> <deliver_after>
  //   deliver <t> <id> <from> <to> <send_time> <deliver_after>
  //   crash <t> <p>
  // Blank lines and lines starting with '#' are ignored; a
  // `model n=<n> d=<d> delta=<delta> f=<f>` line carries the model spec.
  // Every field is plain decimal digits that fit it (process ids fit
  // ProcessId): a sign or an overflow makes the line malformed.

  /// Outcome of parsing one line of the text format.
  enum class ParseResult : std::uint8_t {
    kEvent,  // *out holds a parsed event
    kSkip,   // blank line, comment, or model line — not an event
    kError,  // malformed line
  };

  /// One event in the text format (no trailing newline).
  static std::string format_event(const Event& e);
  /// Parses one line of the text format into *out.
  static ParseResult parse_line(const std::string& line, Event* out);

  /// Writes the recorded events as a trace artifact (write_trace_v1).
  void write_trace(std::ostream& os, std::size_t n, Time d, Time delta,
                   std::size_t f) const;

 private:
  void push(Event e);

  std::size_t max_events_;
  std::vector<Event> events_;
  std::uint64_t steps_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<double> latencies_;
};

/// The trace-format-v1 writer behind every trace artifact: a header
/// comment, the `model` line for the given spec, a `# WARNING` line when a
/// bounded recorder dropped `dropped` records (the events are then a
/// prefix of the execution), and every event, one per line.
void write_trace_v1(std::ostream& os,
                    const std::vector<TraceRecorder::Event>& events,
                    std::size_t n, Time d, Time delta, std::size_t f,
                    std::uint64_t dropped);

/// Replays one recorded event into `observer` as the engine would have
/// reported it live (sends and deliveries as rebuilt Envelopes, without
/// payload). The auditor, telemetry and tracecheck all read traces this way.
void replay_event(const TraceRecorder::Event& e, EngineObserver* observer);

}  // namespace asyncgossip
