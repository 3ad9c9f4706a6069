// The replicated state machine: a deterministic string->string map that
// every command mutates/reads at its committed log position. apply() is the
// single transition function — the service's commit thread and the history
// checker's replay (svc/history.h) both call it, so "what the service did"
// and "what the log says it should have done" cannot drift.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "svc/command.h"

namespace asyncgossip {
namespace svc {

class KvStore {
 public:
  /// Applies one committed command and reports its result (result.seq is
  /// filled by the caller, which owns sequencing). Deterministic.
  CommandResult apply(const Command& cmd);

  std::size_t size() const { return map_.size(); }

 private:
  // aglint:allow(AG-DET-003) keyed find/insert only, never iterated: no
  // output reads the store in hash order, so the hash seed is unobservable.
  std::unordered_map<std::string, std::string> map_;
};

}  // namespace svc
}  // namespace asyncgossip
