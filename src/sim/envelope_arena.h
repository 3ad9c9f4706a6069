// Slab/arena storage for in-flight envelopes: the data-oriented core of the
// engine's timing-wheel mailboxes.
//
// The historical representation — one std::vector<Envelope> per wheel
// bucket — cost n * W vector headers (24 bytes each; 25 MB at n = 4096,
// d = 256 before a single message) plus one heap block per non-empty
// bucket, and the drain fast path swapped each bucket's capacity away, so
// the steady state performed ~1 reallocation per bucket per wheel turn
// (about 20% of engine wall time under gprof). Here a bucket is an 8-byte
// {head, tail} pair chaining fixed-size slabs of envelope slots, and each
// envelope is one packed 32-byte Entry record in a global vector indexed
// by slot = slab * kSlabEntries + i:
//
//   { id, send_time, deliver_after, from, payload-index }
//
// The receiver is not stored: every entry in p's wheel is addressed to p,
// so the engine fills `to` in when it materializes a view.
//
// Slabs are recycled through an intrusive free list (a slab's `next` link
// doubles as the free-list link), so once the arena has grown to the
// execution's standing in-flight volume, send and deliver allocate
// nothing. Appending preserves send order within a chain, and message ids
// are assigned monotonically by the engine, so every chain is id-sorted —
// the property the k-way due-bucket merge relies on.
//
// Payloads are interned in PayloadPool: envelopes store a 32-bit pool
// handle instead of a shared_ptr, so fanning one payload out to k
// destinations costs one pool slot and k non-atomic refcount increments
// rather than k atomic shared_ptr copies. A single-entry memo makes the
// common pattern (one payload, many destinations, interned back to back)
// O(1) without a hash map; the memo can never dangle because the pool
// itself holds a reference to the memoized payload until its refcount
// drops to zero, at which point the memo is cleared.
//
// Thread-safety: none — the arena and pool are engine-internal state,
// mutated only from the engine thread (the shard pool's worker phase reads
// entries and payload pointers but defers every mutation — slab
// recycling, pool releases, appends — to the serial merge; see
// sim/engine.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "sim/message.h"
#include "sim/types.h"

namespace asyncgossip {

/// Counters exposed by Engine::arena_stats(): the bench suite reports
/// slab_allocations as its allocation-count counter (steady state must not
/// grow it), and the arena tests pin the reuse behaviour at wheel
/// wraparound.
struct ArenaStats {
  /// Slab-capacity growth events since construction (each adds one slab).
  std::uint64_t slab_allocations = 0;
  /// Slabs handed out from the free list instead of new capacity.
  std::uint64_t slab_reuses = 0;
  /// Total slabs owned by the arena (allocated, free or chained).
  std::uint64_t slab_capacity = 0;
  /// Slabs currently on the free list.
  std::uint64_t slabs_free = 0;
  /// Payload pool slots created since construction (interning misses).
  std::uint64_t payloads_interned = 0;
  /// Payload pool slots currently live.
  std::uint64_t payload_pool_live = 0;
  /// High-water mark of live payload pool slots.
  std::uint64_t payload_pool_peak = 0;
};

/// Interned payload storage: PayloadPtr slots with non-atomic refcounts,
/// addressed by 32-bit handles. kNoPayload represents a null payload.
class PayloadPool {
 public:
  static constexpr std::uint32_t kNoPayload = 0xffffffffu;

  /// Takes (shared) ownership of `p` and returns its handle with one
  /// reference. Consecutive interns of the same payload object hit the
  /// memo and share a slot; only a hit may pass a non-owning alias.
  std::uint32_t intern(PayloadPtr p) {
    if (p == nullptr) return kNoPayload;
    if (p.get() == memo_raw_) {
      ++refs_[memo_idx_];
      return memo_idx_;
    }
    AG_ASSERT_MSG(p.use_count() != 0, "payload pool needs an owner");
    std::uint32_t h;
    if (!free_.empty()) {
      h = free_.back();
      free_.pop_back();
      ptrs_[h] = std::move(p);
      refs_[h] = 1;
    } else {
      h = static_cast<std::uint32_t>(ptrs_.size());
      ptrs_.push_back(std::move(p));
      refs_.push_back(1);
    }
    memo_raw_ = ptrs_[h].get();
    memo_idx_ = h;
    ++interned_;
    ++live_;
    if (live_ > peak_) peak_ = live_;
    return h;
  }

  /// Drops one reference; at zero the slot releases its PayloadPtr and
  /// returns to the free list.
  void release(std::uint32_t h) {
    if (h == kNoPayload) return;
    AG_ASSERT_MSG(refs_[h] > 0, "payload pool release without a reference");
    if (--refs_[h] == 0) {
      if (memo_idx_ == h) {
        memo_raw_ = nullptr;
        memo_idx_ = kNoPayload;
      }
      ptrs_[h].reset();
      free_.push_back(h);
      --live_;
    }
  }

  /// True when an intern of `p` would hit the memo (no owner needed).
  bool memoized(const Payload* p) const {
    return p != nullptr && p == memo_raw_;
  }

  /// Borrowed pointer; valid while the handle holds a reference.
  const Payload* raw(std::uint32_t h) const {
    return h == kNoPayload ? nullptr : ptrs_[h].get();
  }

  /// Owning copy for seams that may outlive the handle (pending_for).
  PayloadPtr share(std::uint32_t h) const {
    return h == kNoPayload ? nullptr : ptrs_[h];
  }

  std::uint32_t ref_count(std::uint32_t h) const {
    return h == kNoPayload ? 0 : refs_[h];
  }

  std::uint64_t interned_total() const { return interned_; }
  std::uint64_t live() const { return live_; }
  std::uint64_t peak() const { return peak_; }

 private:
  std::vector<PayloadPtr> ptrs_;
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint32_t> free_;
  const Payload* memo_raw_ = nullptr;
  std::uint32_t memo_idx_ = kNoPayload;
  std::uint64_t interned_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t peak_ = 0;
};

/// The slab arena. The engine's drain/merge loops and the arena tests read
/// entries through cursors, for_chain and at().
class EnvelopeArena {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Entries per slab. A bucket with any pending envelope holds at least
  /// one slab, and at large n buckets are sparse: the standing per-bucket
  /// occupancy is in_flight_per_process / W ≈ fanout * d / (2 * W) ≈ 2 for
  /// the large-n shapes, so slab size is the arena's memory amplification
  /// factor for mostly-empty buckets. 4 measured best across the bench
  /// grid (8 wins a few percent on deep mailboxes at small n but costs
  /// ~25% throughput at n = 100k-1M, where the working set blows past
  /// cache; 2 halves the per-slab amortization of chain links for no
  /// large-n gain on the ears shape).
  static constexpr std::uint32_t kSlabEntries = 4;

  /// One in-flight envelope (see file comment; the receiver is implied by
  /// the wheel that holds it).
  struct Entry {
    MessageId id = 0;
    Time send_time = 0;
    Time deliver_after = 0;
    ProcessId from = kNoProcess;
    std::uint32_t payload = PayloadPool::kNoPayload;
  };

  /// A bucket: the chain of slabs holding one wheel slot's envelopes in
  /// send order. Exactly 8 bytes, so the n * W bucket headers stay dense.
  struct Bucket {
    std::uint32_t head = kNil;  // first slab in the chain
    std::uint32_t tail = kNil;  // last slab (append target)
  };

  /// Read cursor into a chain (slab + offset), used by the k-way merge.
  struct Cursor {
    std::uint32_t slab = kNil;
    std::uint32_t i = 0;
  };

  bool chain_empty(const Bucket& b) const { return b.head == kNil; }

  /// Appends one envelope to `b`'s chain. Caller guarantees monotone ids
  /// per chain (the engine assigns ids in send order).
  void append(Bucket& b, const Entry& entry) {
    std::uint32_t tail = b.tail;
    if (tail == kNil || slabs_[tail].used == kSlabEntries) {
      const std::uint32_t s = acquire_slab();
      if (tail == kNil)
        b.head = s;
      else
        slabs_[tail].next = s;
      b.tail = s;
      tail = s;
    }
    const std::uint32_t i = slabs_[tail].used++;
    entries_[static_cast<std::size_t>(tail) * kSlabEntries + i] = entry;
  }

  Cursor cursor(const Bucket& b) const { return Cursor{b.head, 0}; }

  bool at_end(const Cursor& c) const { return c.slab == kNil; }

  /// The entry under the cursor (valid when !at_end).
  const Entry& at(const Cursor& c) const {
    return entries_[static_cast<std::size_t>(c.slab) * kSlabEntries + c.i];
  }

  void advance(Cursor& c) const {
    if (++c.i >= slabs_[c.slab].used) {
      c.slab = slabs_[c.slab].next;
      c.i = 0;
    }
  }

  /// Visits every entry of `b`'s chain in send order.
  template <typename F>
  void for_chain(const Bucket& b, F&& f) const {
    for (Cursor c = cursor(b); !at_end(c); advance(c)) f(at(c));
  }

  /// Returns every slab of `b`'s chain to the free list and resets the
  /// bucket. Entry contents are dead after this.
  void recycle(Bucket& b) {
    std::uint32_t s = b.head;
    while (s != kNil) {
      const std::uint32_t next = slabs_[s].next;
      slabs_[s].next = free_head_;
      free_head_ = s;
      ++free_count_;
      s = next;
    }
    b.head = kNil;
    b.tail = kNil;
  }

  ArenaStats stats() const {
    ArenaStats st;
    st.slab_allocations = allocations_;
    st.slab_reuses = reuses_;
    st.slab_capacity = slabs_.size();
    st.slabs_free = free_count_;
    return st;
  }

 private:
  /// Per-slab metadata: chain link (or free-list link while free) and the
  /// number of occupied entries.
  struct Slab {
    std::uint32_t next = kNil;
    std::uint32_t used = 0;
  };

  std::uint32_t acquire_slab() {
    std::uint32_t s;
    if (free_head_ != kNil) {
      s = free_head_;
      free_head_ = slabs_[s].next;
      --free_count_;
      ++reuses_;
      slabs_[s] = Slab{};
    } else {
      s = static_cast<std::uint32_t>(slabs_.size());
      slabs_.emplace_back();
      entries_.resize(slabs_.size() * kSlabEntries);
      ++allocations_;
    }
    return s;
  }

  std::vector<Entry> entries_;
  std::vector<Slab> slabs_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t free_count_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace asyncgossip
