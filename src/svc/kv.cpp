#include "svc/kv.h"

namespace asyncgossip {
namespace svc {

CommandResult KvStore::apply(const Command& cmd) {
  CommandResult result;
  switch (cmd.op) {
    case SvcOp::kPut:
      map_.insert_or_assign(cmd.key, cmd.value);
      result.ok = true;
      break;
    case SvcOp::kGet: {
      const auto it = map_.find(cmd.key);
      result.ok = true;
      if (it != map_.end()) {
        result.found = true;
        result.value = it->second;
      }
      break;
    }
    case SvcOp::kCas: {
      const auto it = map_.find(cmd.key);
      // CAS on an absent key succeeds iff the comparand is the reserved
      // absent token "-" (which token_ok permits and real values may also
      // use; the loadgen never writes literal "-" values).
      if (it != map_.end()) {
        result.ok = it->second == cmd.expected;
        if (result.ok) it->second = cmd.value;
      } else if (cmd.expected == "-") {
        map_.emplace(cmd.key, cmd.value);
        result.ok = true;
      }
      break;
    }
  }
  return result;
}

}  // namespace svc
}  // namespace asyncgossip
