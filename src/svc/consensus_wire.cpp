#include "svc/consensus_wire.h"

#include <memory>

#include "consensus/core_types.h"
#include "rt/wire.h"

namespace asyncgossip {
namespace svc {

namespace {

/// Val <-> byte: kValUnknown(-2)..1 maps to 0..3.
std::uint8_t val_byte(Val v) { return static_cast<std::uint8_t>(v + 2); }

bool byte_val(wire::Reader* r, Val* out) {
  std::uint8_t b = 0;
  if (!r->byte(&b)) return false;
  if (b > 3) {
    r->fail(wire::DecodeError::kBadValue);
    return false;
  }
  *out = static_cast<Val>(static_cast<int>(b) - 2);
  return true;
}

bool bounded_byte(wire::Reader* r, std::uint8_t max, std::uint8_t* out) {
  if (!r->byte(out)) return false;
  if (*out > max) {
    r->fail(wire::DecodeError::kBadValue);
    return false;
  }
  return true;
}

bool encode_consensus(std::vector<std::uint8_t>* out,
                      const Payload& payload) {
  const auto* p = payload_cast<ConsensusPayload>(&payload);
  if (p == nullptr) return false;
  wire::put_varint(out, kConsensusPayloadTag);
  wire::put_varint(out, p->sender);
  wire::put_varint(out, p->pos.phase);
  out->push_back(p->pos.exchange);
  out->push_back(p->pos.sub);
  wire::encode_bitset(out, p->state.origins);
  for (const Val v : p->state.items) out->push_back(val_byte(v));
  out->push_back(val_byte(p->sender_x));
  out->push_back(val_byte(p->sender_y));
  out->push_back(p->decided ? 1 : 0);
  out->push_back(val_byte(p->decision));
  out->push_back(p->flag_up ? 1 : 0);
  return true;
}

bool decode_consensus(wire::Reader* r, PayloadPtr* out) {
  auto p = std::make_shared<ConsensusPayload>();
  std::uint64_t sender = 0, phase = 0;
  if (!r->varint(&sender) || !r->varint(&phase)) return false;
  if (sender > wire::kMaxBits || phase == 0 || phase > 1u << 20) {
    r->fail(wire::DecodeError::kBadValue);
    return false;
  }
  p->sender = static_cast<ProcessId>(sender);
  p->pos.phase = static_cast<std::uint32_t>(phase);
  if (!bounded_byte(r, 2, &p->pos.exchange)) return false;
  if (!bounded_byte(r, 2, &p->pos.sub)) return false;
  if (!wire::decode_bitset(r, &p->state.origins)) return false;
  const std::size_t n = p->state.origins.size();
  if (r->remaining() < n) {  // one byte per item: allocate only what is there
    r->fail(wire::DecodeError::kTruncated);
    return false;
  }
  p->state.items.assign(n, kValUnknown);
  for (std::size_t i = 0; i < n; ++i)
    if (!byte_val(r, &p->state.items[i])) return false;
  p->state.rebuild_known();  // not on the wire: implied by the items
  if (!byte_val(r, &p->sender_x)) return false;
  if (!byte_val(r, &p->sender_y)) return false;
  std::uint8_t decided = 0;
  if (!bounded_byte(r, 1, &decided)) return false;
  p->decided = decided != 0;
  if (!byte_val(r, &p->decision)) return false;
  std::uint8_t flag = 0;
  if (!bounded_byte(r, 1, &flag)) return false;
  p->flag_up = flag != 0;
  *out = std::move(p);
  return true;
}

}  // namespace

void register_consensus_wire() {
  wire::register_extension_payload(kConsensusPayloadTag, &encode_consensus,
                                   &decode_consensus);
}

}  // namespace svc
}  // namespace asyncgossip
