// Message envelope and type-erased payloads.
//
// Payloads are immutable and shared: a gossip message carrying a snapshot of
// a process's knowledge is allocated once by the sender and referenced by
// the envelope, so "sending" is O(1) regardless of payload size. This
// mirrors the paper's accounting, which counts point-to-point *messages*
// rather than bits.
//
// Since the data-oriented engine core, `Envelope` is a *view* type: the
// engine stores in-flight messages as packed records in slabs plus an
// interned payload pool (sim/envelope_arena.h) and materializes Envelope
// values only at its observation seams (StepContext::received, observer
// callbacks, pending_for). PayloadRef below is what makes both worlds
// compile against the same field: it converts implicitly from PayloadPtr
// (owning — tests, the rt driver and the lower-bound prober build their own
// envelopes and must keep the payload alive), while the engine hands out
// borrowed views whose payloads the pool pins for the duration of the step.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "sim/types.h"

namespace asyncgossip {

/// Base class for algorithm-defined message bodies.
struct Payload {
  virtual ~Payload() = default;

  /// Serialized size of this payload in bytes, for the bit-complexity
  /// accounting the paper lists as future work ("the total number of bits
  /// exchanged in a given computation", Section 7). Implementations report
  /// the size of a natural wire encoding of their fields; the engine sums
  /// it per send into Metrics::bytes_sent().
  virtual std::size_t byte_size() const { return 0; }
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// A payload reference that is either owning (constructed from a
/// PayloadPtr) or borrowed (engine-internal views into the interned payload
/// pool, whose lifetime the engine guarantees for the duration of the
/// observation). The accessor surface mirrors shared_ptr's, so code written
/// against the historical `PayloadPtr payload` field compiles unchanged.
class PayloadRef {
 public:
  PayloadRef() = default;
  PayloadRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  /// Owning: shares lifetime with `owned` (the historical behaviour).
  /// Templated on the source pointer so `shared_ptr<DerivedPayload>` still
  /// converts in one step, exactly as assigning it to a PayloadPtr did.
  template <typename T, typename = std::enable_if_t<
                            std::is_convertible_v<T&&, PayloadPtr>>>
  PayloadRef(T&& owned)  // NOLINT(google-explicit-constructor)
      : owner_(std::forward<T>(owned)) {
    ptr_ = owner_.get();
  }

  /// Borrowed view; caller guarantees *p outlives every access. Only the
  /// engine's materialization seams use this.
  static PayloadRef borrowed(const Payload* p) {
    PayloadRef r;
    r.ptr_ = p;
    return r;
  }

  const Payload* get() const { return ptr_; }
  const Payload* operator->() const { return ptr_; }
  const Payload& operator*() const { return *ptr_; }
  explicit operator bool() const { return ptr_ != nullptr; }

  /// True when this reference keeps the payload alive by itself.
  bool owning() const { return ptr_ == nullptr || owner_ != nullptr; }

  /// The owning shared_ptr, or null for a borrowed view (callers that need
  /// to retain past the borrow must go through an owning seam such as
  /// pending_for, which always returns owning references).
  const PayloadPtr& owner() const { return owner_; }

 private:
  const Payload* ptr_ = nullptr;
  PayloadPtr owner_;
};

/// A point-to-point message in flight or being delivered.
struct Envelope {
  MessageId id = 0;
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  Time send_time = 0;
  /// Earliest step at which the receiver may see the message. The engine
  /// guarantees delivery at the receiver's first local step at or after
  /// max(deliver_after, send_time + 1), and no later than send_time + d.
  Time deliver_after = 0;
  PayloadRef payload;
};

/// Checked downcast of a polymorphic pointer; nullptr on mismatch or null.
/// For a final T an exact-type test is complete, so it is one type_info
/// comparison instead of dynamic_cast's walk of the class hierarchy (the
/// consensus step casts every received payload). Other T use dynamic_cast.
template <typename T, typename Base>
const T* checked_cast(const Base* p) {
  if constexpr (std::is_final_v<T>) {
    return p != nullptr && typeid(*p) == typeid(T) ? static_cast<const T*>(p)
                                                   : nullptr;
  } else {
    return dynamic_cast<const T*>(p);
  }
}

/// Convenience downcast for algorithm code. Returns nullptr on mismatch so
/// algorithms can ignore foreign payload types (used by layered protocols).
template <typename T>
const T* payload_cast(const Payload* payload) {
  return checked_cast<T>(payload);
}
template <typename T>
const T* payload_cast(const Envelope& env) {
  return payload_cast<T>(env.payload.get());
}

}  // namespace asyncgossip
