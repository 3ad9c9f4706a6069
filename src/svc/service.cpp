#include "svc/service.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/assert.h"

namespace asyncgossip {
namespace svc {

KvService::KvService(const KvServiceConfig& config)
    : config_(config), group_(config.group) {
  AG_ASSERT_MSG(config_.batch_limit > 0, "batch_limit must be positive");
  if (config_.log_out != nullptr)
    *config_.log_out << kLogHeader << " algorithm "
                     << to_string(config_.group.algorithm) << " n "
                     << config_.group.n << " f " << config_.group.f
                     << " seed " << config_.group.seed << '\n';
  committer_ = std::thread([this] { commit_loop(); });
}

KvService::~KvService() { stop(); }

namespace {

/// First ring capacity; the ring doubles whenever a submit finds it full.
constexpr std::size_t kMinRing = 64;

}  // namespace

void KvService::submit(const Command& cmd, Callback done) {
  bool queued = false;
  bool wake = false;
  {
    MutexLock lock(&mu_);
    if (stopping_) {
      ++stats_.unavailable;
    } else {
      ++stats_.submitted;
      if (count_ == ring_.size()) grow_ring();
      Pending& slot = ring_[(head_ + count_) & (ring_.size() - 1)];
      slot.cmd = cmd;
      slot.done = std::move(done);
      slot.latency = Stopwatch{};
      ++count_;
      queued = true;
      wake = std::exchange(committer_waiting_, false);
    }
  }
  if (wake) cv_.notify_one();
  if (queued) return;
  CommandResult result;
  result.unavailable = true;
  if (done) done(cmd, result, 0);
}

void KvService::grow_ring() {
  std::vector<Pending> bigger(std::max(kMinRing, 2 * ring_.size()));
  const std::size_t mask = ring_.size() - 1;
  for (std::size_t i = 0; i < count_; ++i)
    bigger[i] = std::move(ring_[(head_ + i) & mask]);
  ring_.swap(bigger);
  head_ = 0;
}

void KvService::stop() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (!joined_ && committer_.joinable()) {
    committer_.join();
    joined_ = true;
  }
}

KvServiceStats KvService::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void KvService::commit_loop() {
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    {
      MutexLock lock(&mu_);
      while (count_ == 0 && !stopping_) {
        committer_waiting_ = true;
        cv_.wait(mu_);
      }
      committer_waiting_ = false;
      if (count_ == 0) return;  // stopping and drained
      const std::size_t take = std::min(count_, config_.batch_limit);
      const std::size_t mask = ring_.size() - 1;
      for (std::size_t i = 0; i < take; ++i)
        batch.push_back(std::move(ring_[(head_ + i) & mask]));
      head_ = (head_ + take) & mask;
      count_ -= take;
    }
    commit_batch(batch);
  }
}

void KvService::commit_batch(std::vector<Pending>& batch) {
  const CommitOutcome slot = group_.commit_slot();
  const bool ok = slot.committed && !slot.unavailable;
  results_.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    CommandResult& result = results_[i];
    if (!ok) {
      result = CommandResult{};
      result.unavailable = true;
      continue;
    }
    result = store_.apply(batch[i].cmd);
    result.seq = next_seq_++;
    if (config_.log_out != nullptr) {
      CommittedEntry entry;
      entry.seq = result.seq;
      entry.cmd = batch[i].cmd;
      entry.ok = result.ok;
      entry.found = result.found;
      entry.read_value = result.value;
      *config_.log_out << encode_log_entry(entry) << '\n';
    }
  }
  if (config_.log_out != nullptr) config_.log_out->flush();

  {
    MutexLock lock(&mu_);
    ++stats_.slots;
    if (!ok) ++stats_.slots_unavailable;
    if (slot.stalled) ++stats_.slots_stalled;
    stats_.consensus_messages += slot.messages;
    stats_.consensus_bytes += slot.bytes;
    stats_.consensus_ticks += slot.decision_time;
    if (ok) stats_.committed += batch.size();
    else stats_.unavailable += batch.size();
    stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, batch.size());
  }

  // Answer only now: every command of the batch is applied and its log
  // line flushed, and one clock read times them all.
  const Stopwatch answered;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Pending& p = batch[i];
    if (p.done) p.done(p.cmd, results_[i], p.latency.us_until(answered));
  }
}

}  // namespace svc
}  // namespace asyncgossip
