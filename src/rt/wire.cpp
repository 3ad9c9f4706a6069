#include "rt/wire.h"

#include <memory>
#include <utility>

#include "common/assert.h"
#include "gossip/epidemic.h"
#include "gossip/lazy.h"
#include "gossip/sync_gossip.h"
#include "gossip/tears.h"
#include "gossip/trivial.h"

namespace asyncgossip {
namespace wire {

namespace {

// Payload shape tags. Appending is fine; renumbering is a wire version bump.
constexpr std::uint64_t kTagNone = 0;
constexpr std::uint64_t kTagTrivial = 1;
constexpr std::uint64_t kTagEpidemic = 2;
constexpr std::uint64_t kTagTears = 3;
constexpr std::uint64_t kTagSync = 4;
constexpr std::uint64_t kTagLazy = 5;

struct ExtensionCodec {
  std::uint64_t tag = 0;
  ExtensionEncodeFn encode = nullptr;
  ExtensionDecodeFn decode = nullptr;
};

/// Startup-registered, then read-only (see wire.h on the registration
/// contract); no lock needed on the hot path.
std::vector<ExtensionCodec>& extension_codecs() {
  static std::vector<ExtensionCodec> codecs;
  return codecs;
}

}  // namespace

void register_extension_payload(std::uint64_t tag, ExtensionEncodeFn encode,
                                ExtensionDecodeFn decode) {
  AG_ASSERT_MSG(tag >= kFirstExtensionTag,
                "extension payload tags start at kFirstExtensionTag");
  AG_ASSERT_MSG(encode != nullptr && decode != nullptr,
                "extension payload codec needs both directions");
  for (const ExtensionCodec& c : extension_codecs()) {
    if (c.tag != tag) continue;
    AG_ASSERT_MSG(c.encode == encode && c.decode == decode,
                  "conflicting codec registered for this extension tag");
    return;  // idempotent re-registration
  }
  extension_codecs().push_back({tag, encode, decode});
}

const char* to_string(DecodeError err) {
  switch (err) {
    case DecodeError::kOk:
      return "ok";
    case DecodeError::kTruncated:
      return "truncated";
    case DecodeError::kBadMagic:
      return "bad-magic";
    case DecodeError::kBadVersion:
      return "bad-version";
    case DecodeError::kBadType:
      return "bad-type";
    case DecodeError::kOverlongVarint:
      return "overlong-varint";
    case DecodeError::kBadPayloadTag:
      return "bad-payload-tag";
    case DecodeError::kBadValue:
      return "bad-value";
    case DecodeError::kTrailingBytes:
      return "trailing-bytes";
  }
  return "?";
}

void put_varint(std::vector<std::uint8_t>* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(v));
}

bool Reader::varint(std::uint64_t* v) {
  if (failed()) return false;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    if (p_ == end_) {
      fail(DecodeError::kTruncated);
      return false;
    }
    const std::uint8_t b = *p_++;
    if ((b & 0x80) == 0) {
      // Canonical: no zero continuation tail, and the 10th byte may only
      // carry the 64th bit.
      if ((i > 0 && b == 0) || (i == 9 && b > 1)) {
        fail(DecodeError::kOverlongVarint);
        return false;
      }
      acc |= static_cast<std::uint64_t>(b) << (7 * i);
      *v = acc;
      return true;
    }
    acc |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
  }
  fail(DecodeError::kOverlongVarint);
  return false;
}

bool Reader::byte(std::uint8_t* v) {
  if (failed()) return false;
  if (p_ == end_) {
    fail(DecodeError::kTruncated);
    return false;
  }
  *v = *p_++;
  return true;
}

bool Reader::raw(const std::uint8_t** data, std::size_t len) {
  if (failed()) return false;
  if (remaining() < len) {
    fail(DecodeError::kTruncated);
    return false;
  }
  *data = p_;
  p_ += len;
  return true;
}

DecodeError Reader::finish() {
  if (failed()) return err_;
  if (p_ != end_) return DecodeError::kTrailingBytes;
  return DecodeError::kOk;
}

namespace {

/// encode_bitset's format for the `nbits` bits at `words` (bits at and
/// beyond nbits clear).
void put_bits(std::vector<std::uint8_t>* out, std::size_t nbits,
              const std::uint64_t* words) {
  put_varint(out, nbits);
  const auto byte_at = [&](std::size_t k) {
    return static_cast<std::uint8_t>(words[k / 8] >> (8 * (k % 8)));
  };
  std::size_t nbytes = (nbits + 7) / 8;
  while (nbytes > 0 && byte_at(nbytes - 1) == 0) --nbytes;
  put_varint(out, nbytes);
  for (std::size_t k = 0; k < nbytes; ++k) out->push_back(byte_at(k));
}

/// Reads and checks one encoded bitset without allocating: `*data` views
/// its `*nbytes` canonical bytes. The bit count must be the reader's n;
/// `absent_ok` also admits 0 bits (an absent informed row).
bool read_bits(Reader* r, bool absent_ok, std::uint64_t* nbits,
               const std::uint8_t** data, std::uint64_t* nbytes) {
  if (!r->varint(nbits) || !r->varint(nbytes)) return false;
  const bool fits = *nbits == r->bits() || (absent_ok && *nbits == 0);
  if (!fits || *nbytes > (*nbits + 7) / 8) {
    r->fail(DecodeError::kBadValue);
    return false;
  }
  if (!r->raw(data, static_cast<std::size_t>(*nbytes))) return false;
  // Canonical: no trailing zero byte, no set bit beyond nbits (only the last
  // byte can hold one).
  if (*nbytes == 0) return true;
  const unsigned last = (*data)[*nbytes - 1];
  if (last == 0 ||
      (*nbytes - 1) * 8 + static_cast<unsigned>(31 - __builtin_clz(last)) >=
          *nbits) {
    r->fail(DecodeError::kBadValue);
    return false;
  }
  return true;
}

/// The `nbits`-bit set whose `nbytes` bytes read_bits viewed at `data`.
DynamicBitset bits_from(std::uint64_t nbits, const std::uint8_t* data,
                        std::uint64_t nbytes) {
  DynamicBitset bits(static_cast<std::size_t>(nbits));
  for (std::uint64_t byte = 0; byte < nbytes; ++byte) {
    std::uint8_t b = data[byte];
    while (b != 0) {
      bits.set(static_cast<std::size_t>(byte * 8) +
               static_cast<std::size_t>(__builtin_ctz(b)));
      b = static_cast<std::uint8_t>(b & (b - 1));
    }
  }
  return bits;
}

/// Decodes I(p) over the reader's n rumors: a row count equal to n, then n
/// bitsets, each empty (row absent) or of n bits (row present). A first
/// pass over a copy of the reader checks that shape, so a list that does
/// not fit n is rejected before anything is allocated.
bool decode_informed(Reader* r, InformedList* out) {
  const std::size_t n = r->bits();
  std::uint64_t count = 0;
  if (!r->varint(&count)) return false;
  if (count != n) {
    r->fail(DecodeError::kBadValue);
    return false;
  }
  std::uint64_t nbits = 0;
  std::uint64_t nbytes = 0;
  const std::uint8_t* data = nullptr;
  Reader probe = *r;
  for (std::size_t row = 0; row < n; ++row) {
    if (!read_bits(&probe, /*absent_ok=*/true, &nbits, &data, &nbytes)) {
      r->fail(probe.error());
      return false;
    }
  }
  InformedList informed(n);
  for (std::size_t row = 0; row < n; ++row) {
    if (!read_bits(r, /*absent_ok=*/true, &nbits, &data, &nbytes))
      return false;
    if (nbits != 0) informed.note_row(row, bits_from(nbits, data, nbytes));
  }
  *out = std::move(informed);
  return true;
}

}  // namespace

void encode_bitset(std::vector<std::uint8_t>* out, const DynamicBitset& bits) {
  put_bits(out, bits.size(), bits.words().data());
}

bool decode_bitset(Reader* r, DynamicBitset* out) {
  std::uint64_t nbits = 0;
  std::uint64_t nbytes = 0;
  const std::uint8_t* data = nullptr;
  if (!read_bits(r, /*absent_ok=*/false, &nbits, &data, &nbytes))
    return false;
  *out = bits_from(nbits, data, nbytes);
  return true;
}

void encode_payload(std::vector<std::uint8_t>* out, const Payload* payload) {
  if (payload == nullptr) {
    put_varint(out, kTagNone);
    return;
  }
  if (const auto* p = dynamic_cast<const TrivialPayload*>(payload)) {
    put_varint(out, kTagTrivial);
    encode_bitset(out, p->rumors);
    return;
  }
  if (const auto* p = dynamic_cast<const EpidemicPayload*>(payload)) {
    const InformedList& informed = p->informed;
    const std::size_t n = informed.n();
    AG_ASSERT_MSG(n == p->rumors.size(), "informed list does not fit V");
    put_varint(out, kTagEpidemic);
    encode_bitset(out, p->rumors);
    put_varint(out, n);
    for (std::size_t row = 0; row < n; ++row) {
      if (informed.present(row)) put_bits(out, n, informed.row(row));
      else put_bits(out, 0, nullptr);
    }
    return;
  }
  if (const auto* p = dynamic_cast<const TearsPayload*>(payload)) {
    put_varint(out, kTagTears);
    encode_bitset(out, p->rumors);
    out->push_back(p->flag_up ? 1 : 0);
    return;
  }
  if (const auto* p = dynamic_cast<const SyncGossipPayload*>(payload)) {
    put_varint(out, kTagSync);
    encode_bitset(out, p->rumors);
    return;
  }
  if (const auto* p = dynamic_cast<const LazyPayload*>(payload)) {
    put_varint(out, kTagLazy);
    encode_bitset(out, p->rumors);
    return;
  }
  for (const ExtensionCodec& c : extension_codecs())
    if (c.encode(out, *payload)) return;
  AG_ASSERT_MSG(false, "payload type has no asyncgossip-wire-v1 encoding");
}

bool decode_payload(Reader* r, PayloadPtr* out) {
  std::uint64_t tag = 0;
  if (!r->varint(&tag)) return false;
  switch (tag) {
    case kTagNone:
      out->reset();
      return true;
    case kTagTrivial: {
      auto p = std::make_shared<TrivialPayload>();
      if (!decode_bitset(r, &p->rumors)) return false;
      *out = std::move(p);
      return true;
    }
    case kTagEpidemic: {
      auto p = std::make_shared<EpidemicPayload>();
      if (!decode_bitset(r, &p->rumors)) return false;
      if (!decode_informed(r, &p->informed)) return false;
      *out = std::move(p);
      return true;
    }
    case kTagTears: {
      auto p = std::make_shared<TearsPayload>();
      if (!decode_bitset(r, &p->rumors)) return false;
      std::uint8_t flag = 0;
      if (!r->byte(&flag)) return false;
      if (flag > 1) {
        r->fail(DecodeError::kBadValue);
        return false;
      }
      p->flag_up = flag != 0;
      *out = std::move(p);
      return true;
    }
    case kTagSync: {
      auto p = std::make_shared<SyncGossipPayload>();
      if (!decode_bitset(r, &p->rumors)) return false;
      *out = std::move(p);
      return true;
    }
    case kTagLazy: {
      auto p = std::make_shared<LazyPayload>();
      if (!decode_bitset(r, &p->rumors)) return false;
      *out = std::move(p);
      return true;
    }
    default:
      for (const ExtensionCodec& c : extension_codecs())
        if (c.tag == tag) return c.decode(r, out);
      r->fail(DecodeError::kBadPayloadTag);
      return false;
  }
}

void put_header(std::vector<std::uint8_t>* out, FrameType type) {
  out->push_back(kMagic0);
  out->push_back(kMagic1);
  out->push_back(kVersion);
  out->push_back(static_cast<std::uint8_t>(type));
}

DecodeError peek_type(const std::uint8_t* data, std::size_t len,
                      FrameType* type) {
  if (len < kHeaderBytes) return DecodeError::kTruncated;
  if (data[0] != kMagic0 || data[1] != kMagic1) return DecodeError::kBadMagic;
  if (data[2] != kVersion) return DecodeError::kBadVersion;
  if (data[3] < static_cast<std::uint8_t>(FrameType::kData) ||
      data[3] > static_cast<std::uint8_t>(FrameType::kBye))
    return DecodeError::kBadType;
  *type = static_cast<FrameType>(data[3]);
  return DecodeError::kOk;
}

namespace {

/// Header check + body reader for one expected frame type; `bits` is the
/// receiver's n for frames that carry bitsets (Reader).
DecodeError open_frame(const std::uint8_t* data, std::size_t len,
                       FrameType want, Reader* r, std::size_t bits = 0) {
  FrameType type;
  const DecodeError err = peek_type(data, len, &type);
  if (err != DecodeError::kOk) return err;
  if (type != want) return DecodeError::kBadType;
  *r = Reader(data + kHeaderBytes, len - kHeaderBytes, bits);
  return DecodeError::kOk;
}

}  // namespace

void encode_data_frame(std::vector<std::uint8_t>* out, const DataFrame& frame) {
  put_header(out, FrameType::kData);
  put_varint(out, frame.from);
  put_varint(out, frame.to);
  put_varint(out, frame.seq);
  put_varint(out, frame.envelopes.size());
  for (const Envelope& env : frame.envelopes) {
    AG_ASSERT_MSG(env.from == frame.from && env.to == frame.to,
                  "data frame batches exactly one (from, to) link");
    AG_ASSERT_MSG(env.deliver_after > env.send_time,
                  "deliver_after must be at least send_time + 1");
    put_varint(out, env.id);
    put_varint(out, env.send_time);
    put_varint(out, env.deliver_after - env.send_time);
    encode_payload(out, env.payload.get());
  }
}

DecodeError decode_data_frame(const std::uint8_t* data, std::size_t len,
                              std::size_t n, DataFrame* out) {
  Reader r(nullptr, 0);
  const DecodeError open = open_frame(data, len, FrameType::kData, &r, n);
  if (open != DecodeError::kOk) return open;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::uint64_t count = 0;
  if (!r.varint(&from) || !r.varint(&to) || !r.varint(&out->seq) ||
      !r.varint(&count))
    return r.error();
  // Each envelope takes at least 4 bytes (id, send time, delay, payload
  // tag), so a count the rest of the datagram cannot hold is rejected
  // before the reserve below is sized from it.
  if (out->seq == 0 || count > kMaxCount || count > r.remaining() / 4)
    return DecodeError::kBadValue;
  out->from = static_cast<ProcessId>(from);
  out->to = static_cast<ProcessId>(to);
  out->envelopes.clear();
  out->envelopes.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Envelope env;
    env.from = out->from;
    env.to = out->to;
    std::uint64_t delay = 0;
    if (!r.varint(&env.id) || !r.varint(&env.send_time) || !r.varint(&delay))
      return r.error();
    if (delay == 0) return DecodeError::kBadValue;
    env.deliver_after = env.send_time + delay;
    PayloadPtr payload;
    if (!decode_payload(&r, &payload)) return r.error();
    env.payload = std::move(payload);
    out->envelopes.push_back(std::move(env));
  }
  return r.finish();
}

void encode_ack_frame(std::vector<std::uint8_t>* out, const AckFrame& frame) {
  put_header(out, FrameType::kAck);
  put_varint(out, frame.receiver);
  put_varint(out, frame.sender);
  put_varint(out, frame.cum_seq);
  out->push_back(frame.closed ? 1 : 0);
}

DecodeError decode_ack_frame(const std::uint8_t* data, std::size_t len,
                             AckFrame* out) {
  Reader r(nullptr, 0);
  const DecodeError open = open_frame(data, len, FrameType::kAck, &r);
  if (open != DecodeError::kOk) return open;
  std::uint64_t receiver = 0;
  std::uint64_t sender = 0;
  std::uint8_t closed = 0;
  if (!r.varint(&receiver) || !r.varint(&sender) || !r.varint(&out->cum_seq) ||
      !r.byte(&closed))
    return r.error();
  if (closed > 1) return DecodeError::kBadValue;
  out->receiver = static_cast<ProcessId>(receiver);
  out->sender = static_cast<ProcessId>(sender);
  out->closed = closed != 0;
  return r.finish();
}

void encode_hello_frame(std::vector<std::uint8_t>* out,
                        const HelloFrame& frame) {
  put_header(out, FrameType::kHello);
  put_varint(out, frame.pid);
}

DecodeError decode_hello_frame(const std::uint8_t* data, std::size_t len,
                               HelloFrame* out) {
  Reader r(nullptr, 0);
  const DecodeError open = open_frame(data, len, FrameType::kHello, &r);
  if (open != DecodeError::kOk) return open;
  std::uint64_t pid = 0;
  if (!r.varint(&pid)) return r.error();
  out->pid = static_cast<ProcessId>(pid);
  return r.finish();
}

void encode_peer_table_frame(std::vector<std::uint8_t>* out,
                             const PeerTableFrame& frame) {
  put_header(out, FrameType::kPeerTable);
  put_varint(out, frame.ports.size());
  for (std::uint16_t port : frame.ports) put_varint(out, port);
}

DecodeError decode_peer_table_frame(const std::uint8_t* data, std::size_t len,
                                    PeerTableFrame* out) {
  Reader r(nullptr, 0);
  const DecodeError open = open_frame(data, len, FrameType::kPeerTable, &r);
  if (open != DecodeError::kOk) return open;
  std::uint64_t count = 0;
  if (!r.varint(&count)) return r.error();
  // One byte per port at least: reject a count the datagram cannot hold.
  if (count > kMaxCount || count > r.remaining()) return DecodeError::kBadValue;
  out->ports.clear();
  out->ports.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t port = 0;
    if (!r.varint(&port)) return r.error();
    if (port > 0xffff) return DecodeError::kBadValue;
    out->ports.push_back(static_cast<std::uint16_t>(port));
  }
  return r.finish();
}

void encode_status_frame(std::vector<std::uint8_t>* out,
                         const StatusFrame& frame) {
  put_header(out, FrameType::kStatus);
  put_varint(out, frame.pid);
  out->push_back(static_cast<std::uint8_t>((frame.quiescent ? 1 : 0) |
                                           (frame.crashed ? 2 : 0)));
  put_varint(out, frame.steps);
  put_varint(out, frame.sends);
  put_varint(out, frame.deliveries);
  put_varint(out, frame.discarded);
}

DecodeError decode_status_frame(const std::uint8_t* data, std::size_t len,
                                StatusFrame* out) {
  Reader r(nullptr, 0);
  const DecodeError open = open_frame(data, len, FrameType::kStatus, &r);
  if (open != DecodeError::kOk) return open;
  std::uint64_t pid = 0;
  std::uint8_t flags = 0;
  if (!r.varint(&pid) || !r.byte(&flags) || !r.varint(&out->steps) ||
      !r.varint(&out->sends) || !r.varint(&out->deliveries) ||
      !r.varint(&out->discarded))
    return r.error();
  if (flags > 3) return DecodeError::kBadValue;
  out->pid = static_cast<ProcessId>(pid);
  out->quiescent = (flags & 1) != 0;
  out->crashed = (flags & 2) != 0;
  return r.finish();
}

void encode_signal_frame(std::vector<std::uint8_t>* out, FrameType type) {
  AG_ASSERT_MSG(type == FrameType::kStart || type == FrameType::kShutdown,
                "signal frames are kStart / kShutdown");
  put_header(out, type);
}

void encode_bye_frame(std::vector<std::uint8_t>* out, ProcessId pid) {
  put_header(out, FrameType::kBye);
  put_varint(out, pid);
}

DecodeError decode_bye_frame(const std::uint8_t* data, std::size_t len,
                             ProcessId* pid) {
  Reader r(nullptr, 0);
  const DecodeError open = open_frame(data, len, FrameType::kBye, &r);
  if (open != DecodeError::kOk) return open;
  std::uint64_t raw = 0;
  if (!r.varint(&raw)) return r.error();
  *pid = static_cast<ProcessId>(raw);
  return r.finish();
}

}  // namespace wire
}  // namespace asyncgossip
