// asyncgossip-wire-v1: the compact binary frame format UdpTransport puts
// on the wire (rt/udp_transport.h), plus the coordinator/worker control
// frames of the multi-process driver (rt/multiproc.h).
//
// Layout. Every datagram is one frame: a 4-byte header — magic 'A' 'G',
// version byte, frame type byte — followed by a type-specific body built
// from unsigned LEB128 varints and length-prefixed byte strings. A data
// frame carries *all* of one sender's same-tick envelopes for one
// destination (the per-destination-per-tick batch) under a single per-link
// sequence number; payloads are encoded per algorithm shape with
// varint-packed bitsets (bit count + significant bytes, trailing zero
// bytes trimmed).
//
// The decoder is strict: truncated bodies, wrong magic/version, overlong
// (non-canonical) varints, out-of-range counts, set bits beyond a bitset's
// declared size, and trailing bytes are all distinct DecodeError values,
// never undefined behaviour — a datagram is attacker-adjacent input even
// on loopback, and tests/test_wire.cpp holds the decoder to that over a
// malformed-frame corpus under ASan/UBSan.
//
// Canonical encoding matters beyond hygiene: the receiver deduplicates
// retransmits by (link, seq), and golden byte-for-byte fixtures pin the
// format, so one logical frame must have exactly one byte representation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "sim/message.h"
#include "sim/types.h"

namespace asyncgossip {
namespace wire {

inline constexpr std::uint8_t kMagic0 = 'A';
inline constexpr std::uint8_t kMagic1 = 'G';
inline constexpr std::uint8_t kVersion = 1;
/// Header bytes: magic, magic, version, frame type.
inline constexpr std::size_t kHeaderBytes = 4;
/// Ceiling for one encoded frame; batches that would exceed it are split
/// into multiple frames (each with its own sequence number). Safely under
/// the 65507-byte UDP payload limit.
inline constexpr std::size_t kMaxFrameBytes = 60000;
/// Decode-side sanity caps: reject before allocating. Bitsets need no cap
/// of their own, as each must carry exactly the receiver's n bits (Reader);
/// kMaxBits bounds process ids in extension payloads.
inline constexpr std::uint64_t kMaxBits = 1u << 26;
inline constexpr std::uint64_t kMaxCount = 1u << 20;

enum class FrameType : std::uint8_t {
  kData = 1,       // sender -> receiver: a batch of envelopes
  kAck = 2,        // receiver -> sender: cumulative per-link ack
  kHello = 3,      // worker -> coordinator: join (source addr = data port)
  kPeerTable = 4,  // coordinator -> worker: every worker's data port
  kStart = 5,      // coordinator -> worker: clocks start now
  kStatus = 6,     // worker -> coordinator: progress counters
  kShutdown = 7,   // coordinator -> worker: write your log and exit
  kBye = 8,        // worker -> coordinator: log written, exiting
};

enum class DecodeError : std::uint8_t {
  kOk = 0,
  kTruncated,       // body ends mid-field
  kBadMagic,        // first two bytes are not 'A' 'G'
  kBadVersion,      // version byte != kVersion
  kBadType,         // unknown frame type byte
  kOverlongVarint,  // > 10 bytes, non-canonical, or overflows 64 bits
  kBadPayloadTag,   // unknown payload shape tag
  kBadValue,        // out-of-range count/size, bitset not of n bits, zero
                    // delay, nonzero padding
  kTrailingBytes,   // well-formed frame followed by extra bytes
};

const char* to_string(DecodeError err);

// --- primitives ----------------------------------------------------------

/// Appends v as unsigned LEB128 (1..10 bytes, canonical).
void put_varint(std::vector<std::uint8_t>* out, std::uint64_t v);

/// Strict, bounds-checked reader over one datagram. `bits` is the
/// receiver's process count n: every bitset the reader decodes must be of
/// exactly n bits (0 for readers of frames that carry none), so a declared
/// size never sizes an allocation on its own.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len, std::size_t bits = 0)
      : p_(data), end_(data + len), bits_(bits) {}

  /// Reads one canonical varint; on failure records the error and returns
  /// false (every later read also fails, so call sites can chain).
  bool varint(std::uint64_t* v);
  bool byte(std::uint8_t* v);
  /// Grants a view of the next `len` raw bytes.
  bool raw(const std::uint8_t** data, std::size_t len);

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  std::size_t bits() const { return bits_; }
  bool failed() const { return err_ != DecodeError::kOk; }
  DecodeError error() const { return err_; }
  void fail(DecodeError err) {
    if (err_ == DecodeError::kOk) err_ = err;
  }
  /// kTrailingBytes unless the reader consumed the whole datagram.
  DecodeError finish();

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  std::size_t bits_;
  DecodeError err_ = DecodeError::kOk;
};

/// Varint-packed bitset: bit count, significant byte count (trailing zero
/// bytes trimmed), then the bytes, little-endian within each byte. Decoding
/// rejects (kBadValue) a bit count other than r->bits().
void encode_bitset(std::vector<std::uint8_t>* out, const DynamicBitset& bits);
bool decode_bitset(Reader* r, DynamicBitset* out);

/// Algorithm payload shapes (gossip/*.h). Tag 0 is the null payload.
/// Encoding dispatches on the dynamic type; unknown payload types fail hard
/// (AG_ASSERT) — the wire must not silently drop knowledge.
void encode_payload(std::vector<std::uint8_t>* out, const Payload* payload);
bool decode_payload(Reader* r, PayloadPtr* out);

// --- extension payload codecs --------------------------------------------
// Layers above rt can put payload types on the wire that the core codec
// must not know (layering: rt cannot include consensus headers — the
// consensus ConsensusPayload codec lives in svc/consensus_wire.h). An
// extension claims a tag >= kFirstExtensionTag and registers an encoder
// probe plus a decoder. The encoder does its own dynamic type test: it
// writes tag + body and returns true when the payload is its type, else
// returns false leaving `out` untouched (probes chain in registration
// order). The decoder is invoked after the tag has been read and must obey
// the same strictness contract as the built-in shapes. Registration is
// process-global and must precede the first encode/decode of such a
// payload (single-threaded startup — gossiplab's main registers);
// re-registering the same (tag, fns) triple is an idempotent no-op, a
// conflicting one asserts.
inline constexpr std::uint64_t kFirstExtensionTag = 16;

using ExtensionEncodeFn = bool (*)(std::vector<std::uint8_t>* out,
                                   const Payload& payload);
using ExtensionDecodeFn = bool (*)(Reader* r, PayloadPtr* out);

void register_extension_payload(std::uint64_t tag, ExtensionEncodeFn encode,
                                ExtensionDecodeFn decode);

// --- frames --------------------------------------------------------------

/// Writes the 4-byte header.
void put_header(std::vector<std::uint8_t>* out, FrameType type);
/// Checks magic + version and extracts the frame type.
DecodeError peek_type(const std::uint8_t* data, std::size_t len,
                      FrameType* type);

/// One sender's batch for one destination: every envelope shares
/// (from, to); ids, times and payloads are per envelope.
struct DataFrame {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  /// Per-(from, to) frame sequence number, starting at 1, strictly
  /// monotone: the receiver releases frames in seq order and drops
  /// duplicates (retransmits) by it.
  std::uint64_t seq = 0;
  std::vector<Envelope> envelopes;
};

void encode_data_frame(std::vector<std::uint8_t>* out, const DataFrame& frame);
/// Decodes a data frame for a receiver in a group of `n` processes: every
/// payload bitset must be of n bits (see Reader).
DecodeError decode_data_frame(const std::uint8_t* data, std::size_t len,
                              std::size_t n, DataFrame* out);

/// Cumulative ack: every frame on (sender -> receiver) with
/// seq <= cum_seq has been received (or discarded, when `closed`).
struct AckFrame {
  ProcessId receiver = kNoProcess;
  ProcessId sender = kNoProcess;
  std::uint64_t cum_seq = 0;
  /// The receiver's inbox is closed (crashed): the sender can stop
  /// retransmitting everything, acked or not.
  bool closed = false;
};

void encode_ack_frame(std::vector<std::uint8_t>* out, const AckFrame& frame);
DecodeError decode_ack_frame(const std::uint8_t* data, std::size_t len,
                             AckFrame* out);

// --- control frames (multi-process driver) -------------------------------

struct HelloFrame {
  ProcessId pid = kNoProcess;
};

struct PeerTableFrame {
  /// Data port of every worker, indexed by pid.
  std::vector<std::uint16_t> ports;
};

struct StatusFrame {
  ProcessId pid = kNoProcess;
  bool quiescent = false;
  bool crashed = false;
  std::uint64_t steps = 0;
  std::uint64_t sends = 0;
  std::uint64_t deliveries = 0;
  /// Envelopes that arrived at (or were pending in) a closed inbox.
  std::uint64_t discarded = 0;
};

void encode_hello_frame(std::vector<std::uint8_t>* out, const HelloFrame& frame);
DecodeError decode_hello_frame(const std::uint8_t* data, std::size_t len,
                               HelloFrame* out);
void encode_peer_table_frame(std::vector<std::uint8_t>* out,
                             const PeerTableFrame& frame);
DecodeError decode_peer_table_frame(const std::uint8_t* data, std::size_t len,
                                    PeerTableFrame* out);
void encode_status_frame(std::vector<std::uint8_t>* out,
                         const StatusFrame& frame);
DecodeError decode_status_frame(const std::uint8_t* data, std::size_t len,
                                StatusFrame* out);
/// kStart / kShutdown / kBye are header-only; kBye carries the pid.
void encode_signal_frame(std::vector<std::uint8_t>* out, FrameType type);
void encode_bye_frame(std::vector<std::uint8_t>* out, ProcessId pid);
DecodeError decode_bye_frame(const std::uint8_t* data, std::size_t len,
                             ProcessId* pid);

}  // namespace wire
}  // namespace asyncgossip
