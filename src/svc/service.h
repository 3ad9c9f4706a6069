// The replicated KV service: clients submit commands, a commit thread
// drains them into batches, each batch commits through one consensus slot
// (svc/replica.h), and committed commands are applied to the state machine
// and appended to the committed log. Group commit is what makes >= 1M
// requests tractable: one consensus decision amortizes over up to
// `batch_limit` commands.
//
// Threading: submit() may be called from any number of client threads; the
// single commit thread owns the KvStore, the sequencer, and the log
// stream. The queue is the only shared state (annotated Mutex + CondVar,
// clang -Wthread-safety-checked like src/rt): a FIFO ring, so a submit
// writes one slot and the commit thread moves out exactly one batch.
// Completion is delivered via the per-command callback, invoked on the
// commit thread once the whole batch is applied and its committed-log
// lines are flushed (apply, then answer): an ack never precedes its log
// line.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "rt/clock.h"
#include "svc/command.h"
#include "svc/history.h"
#include "svc/kv.h"
#include "svc/replica.h"

namespace asyncgossip {
namespace svc {

struct KvServiceConfig {
  ReplicaGroupConfig group;
  /// Commands per consensus slot, at most. 0 is invalid.
  std::size_t batch_limit = 512;
  /// Optional committed-log sink (history checking): entries are streamed
  /// as they commit under `# asyncgossip-svc-log-v1`. Owned by the caller;
  /// must outlive the service. Null disables logging.
  std::ostream* log_out = nullptr;
};

/// Aggregate serving counters (monotone; read after stop() for totals).
struct KvServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t slots = 0;
  std::uint64_t slots_unavailable = 0;
  std::uint64_t slots_stalled = 0;
  std::uint64_t consensus_messages = 0;
  std::uint64_t consensus_bytes = 0;
  Time consensus_ticks = 0;
  std::uint64_t max_batch = 0;
};

class KvService {
 public:
  /// (command, result, latency in microseconds from submit until the batch
  /// was applied and its log lines flushed; one clock read per batch).
  using Callback =
      std::function<void(const Command&, const CommandResult&, std::uint64_t)>;

  explicit KvService(const KvServiceConfig& config);
  ~KvService();

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  /// Enqueues a command; `done` fires exactly once, on the commit thread.
  /// After stop() begins, further submissions are answered unavailable.
  void submit(const Command& cmd, Callback done);

  /// Drains the queue, commits what remains, and joins the commit thread.
  /// Idempotent.
  void stop();

  /// Totals; stable once stop() returned.
  KvServiceStats stats() const;

  const ReplicaGroup& group() const { return group_; }

 private:
  struct Pending {
    Command cmd;
    Callback done;
    Stopwatch latency;
  };

  void commit_loop();
  void commit_batch(std::vector<Pending>& batch);
  /// Doubles the ring (or sizes an empty one), keeping FIFO order.
  void grow_ring() AG_REQUIRES(mu_);

  KvServiceConfig config_;
  ReplicaGroup group_;   // commit-thread-owned after start
  KvStore store_;        // commit-thread-owned
  std::uint64_t next_seq_ = 1;  // commit-thread-owned
  std::vector<CommandResult> results_;  // commit-thread-owned, per batch

  mutable Mutex mu_;
  CondVar cv_;
  /// Pending commands in submission order: ring_[(head_ + i) & mask] for
  /// i < count_, where the capacity ring_.size() is a power of two.
  std::vector<Pending> ring_ AG_GUARDED_BY(mu_);
  std::size_t head_ AG_GUARDED_BY(mu_) = 0;
  std::size_t count_ AG_GUARDED_BY(mu_) = 0;
  /// The commit thread is blocked in cv_.wait: only then does a submit
  /// notify (each notify also takes the condition variable's own mutex).
  bool committer_waiting_ AG_GUARDED_BY(mu_) = false;
  bool stopping_ AG_GUARDED_BY(mu_) = false;
  KvServiceStats stats_ AG_GUARDED_BY(mu_);

  std::thread committer_;
  bool joined_ = false;
};

}  // namespace svc
}  // namespace asyncgossip
