// asyncgossip-wire-v1 format tests (rt/wire.h).
//
// Three layers of pinning:
//
//   * Golden fixtures — committed byte-for-byte encodings. The wire format
//     is a compatibility surface between separately spawned OS processes
//     (rt/multiproc.h); an accidental encoding change must fail a test, not
//     surface as a version-skew hang. Canonical bytes also back the
//     receiver's dedup-by-(link, seq), so one logical frame must have
//     exactly one representation.
//   * Round-trip properties — encode/decode over every payload shape and
//     every control frame, with seeded-random bitsets.
//   * Malformed-frame corpus — a datagram is attacker-adjacent input even
//     on loopback: every truncation prefix, bad magic/version/type,
//     overlong varints, out-of-range values, unknown payload tags and
//     trailing bytes must come back as clean DecodeErrors with no UB (this
//     file is part of the asan-ubsan preset for exactly that reason).
//
// The last tests drive raw datagrams into a live UdpTransport socket:
// garbage is counted (stats().decode_errors), duplicate sequence numbers
// are dropped, and neither perturbs the delivered envelope stream.
#include "rt/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "gossip/epidemic.h"
#include "gossip/lazy.h"
#include "gossip/sync_gossip.h"
#include "gossip/tears.h"
#include "gossip/trivial.h"
#include "rt/udp_transport.h"

namespace asyncgossip {
namespace {

using Bytes = std::vector<std::uint8_t>;

DynamicBitset bits_of(std::size_t size, std::initializer_list<std::size_t> set) {
  DynamicBitset bits(size);
  for (std::size_t i : set) bits.set(i);
  return bits;
}

DynamicBitset random_bits(std::size_t size, Xoshiro256SS* rng) {
  DynamicBitset bits(size);
  if (size == 0) return bits;
  const std::uint64_t count = rng->uniform(size + 1);
  for (std::uint64_t i = 0; i < count; ++i)
    bits.set(static_cast<std::size_t>(rng->uniform(size)));
  return bits;
}

Envelope make_env(MessageId id, ProcessId from, ProcessId to, Time send_time,
                  Time deliver_after, PayloadPtr payload = nullptr) {
  Envelope env;
  env.id = id;
  env.from = from;
  env.to = to;
  env.send_time = send_time;
  env.deliver_after = deliver_after;
  env.payload = std::move(payload);
  return env;
}

// --- golden fixtures ------------------------------------------------------

TEST(Wire, GoldenVarints) {
  const struct {
    std::uint64_t value;
    Bytes bytes;
  } kGolden[] = {
      {0, {0x00}},
      {1, {0x01}},
      {127, {0x7f}},
      {128, {0x80, 0x01}},
      {300, {0xac, 0x02}},
      {std::uint64_t{1} << 32, {0x80, 0x80, 0x80, 0x80, 0x10}},
      {~std::uint64_t{0},
       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
  };
  for (const auto& g : kGolden) {
    Bytes out;
    wire::put_varint(&out, g.value);
    EXPECT_EQ(out, g.bytes) << g.value;
    wire::Reader r(out.data(), out.size());
    std::uint64_t back = 0;
    ASSERT_TRUE(r.varint(&back)) << g.value;
    EXPECT_EQ(back, g.value);
    EXPECT_EQ(r.finish(), wire::DecodeError::kOk);
  }
}

TEST(Wire, GoldenDataFrame) {
  // from=1 to=2 seq=1, one envelope {id=7, send=3, deliver=5} carrying a
  // trivial payload over 4 rumors with bits {0, 2} set.
  auto payload = std::make_shared<TrivialPayload>();
  payload->rumors = bits_of(4, {0, 2});
  wire::DataFrame frame;
  frame.from = 1;
  frame.to = 2;
  frame.seq = 1;
  frame.envelopes.push_back(make_env(7, 1, 2, 3, 5, payload));

  Bytes out;
  wire::encode_data_frame(&out, frame);
  const Bytes kGolden = {
      'A', 'G', 0x01, 0x01,  // header: magic, version, kData
      0x01, 0x02, 0x01,      // from, to, seq
      0x01,                  // envelope count
      0x07, 0x03, 0x02,      // id, send_time, deliver_after - send_time
      0x01,                  // payload tag: trivial
      0x04, 0x01, 0x05,      // bitset: 4 bits, 1 byte, 0b0101
  };
  EXPECT_EQ(out, kGolden);

  wire::DataFrame back;
  ASSERT_EQ(wire::decode_data_frame(kGolden.data(), kGolden.size(), 4, &back),
            wire::DecodeError::kOk);
  EXPECT_EQ(back.from, 1u);
  EXPECT_EQ(back.to, 2u);
  EXPECT_EQ(back.seq, 1u);
  ASSERT_EQ(back.envelopes.size(), 1u);
  EXPECT_EQ(back.envelopes[0].id, 7u);
  EXPECT_EQ(back.envelopes[0].send_time, 3u);
  EXPECT_EQ(back.envelopes[0].deliver_after, 5u);
  const auto* p = payload_cast<TrivialPayload>(back.envelopes[0]);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->rumors == payload->rumors);
}

TEST(Wire, GoldenEpidemicDataFrame) {
  // from=2 to=5 seq=3, one envelope {id=17, send=6, deliver=9} carrying an
  // epidemic payload over 10 rumors: V = {0, 2, 9}; I has row 0 = {1, 9},
  // row 2 present but empty, row 9 = {0, 3, 8}, every other row absent.
  auto payload = std::make_shared<EpidemicPayload>();
  payload->rumors = bits_of(10, {0, 2, 9});
  payload->informed = InformedList(10);
  payload->informed.note_row(0, bits_of(10, {1, 9}));
  payload->informed.note_row(2, bits_of(10, {}));
  payload->informed.note_row(9, bits_of(10, {0, 3, 8}));
  // 2 bytes of V, 2 presence bytes, 3 present rows of one word each.
  EXPECT_EQ(payload->byte_size(), 34u);
  wire::DataFrame frame;
  frame.from = 2;
  frame.to = 5;
  frame.seq = 3;
  frame.envelopes.push_back(make_env(17, 2, 5, 6, 9, payload));

  Bytes out;
  wire::encode_data_frame(&out, frame);
  const Bytes kGolden = {
      'A', 'G', 0x01, 0x01,    // header: magic, version, kData
      0x02, 0x05, 0x03,        // from, to, seq
      0x01,                    // envelope count
      0x11, 0x06, 0x03,        // id, send_time, deliver_after - send_time
      0x02,                    // payload tag: epidemic
      0x0a, 0x02, 0x05, 0x02,  // V: 10 bits, 2 bytes, {0, 2} {9}
      0x0a,                    // I: 10 rows
      0x0a, 0x02, 0x02, 0x02,  // row 0: 10 bits, 2 bytes, {1} {9}
      0x00, 0x00,              // row 1: absent
      0x0a, 0x00,              // row 2: present, empty
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // rows 3-5: absent
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // rows 6-8: absent
      0x0a, 0x02, 0x09, 0x01,  // row 9: 10 bits, 2 bytes, {0, 3} {8}
  };
  EXPECT_EQ(out, kGolden);

  wire::DataFrame back;
  ASSERT_EQ(
      wire::decode_data_frame(kGolden.data(), kGolden.size(), 10, &back),
      wire::DecodeError::kOk);
  ASSERT_EQ(back.envelopes.size(), 1u);
  const auto* p = payload_cast<EpidemicPayload>(back.envelopes[0]);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->rumors == payload->rumors);
  EXPECT_TRUE(p->informed == payload->informed);
  EXPECT_TRUE(p->informed.present(2));
  EXPECT_FALSE(p->informed.present(1));
  EXPECT_EQ(p->byte_size(), 34u);
}

TEST(Wire, GoldenAckAndSignalFrames) {
  wire::AckFrame ack;
  ack.receiver = 2;
  ack.sender = 1;
  ack.cum_seq = 3;
  ack.closed = false;
  Bytes out;
  wire::encode_ack_frame(&out, ack);
  const Bytes kGoldenAck = {'A', 'G', 0x01, 0x02, 0x02, 0x01, 0x03, 0x00};
  EXPECT_EQ(out, kGoldenAck);

  Bytes start;
  wire::encode_signal_frame(&start, wire::FrameType::kStart);
  EXPECT_EQ(start, (Bytes{'A', 'G', 0x01, 0x05}));
  Bytes shutdown;
  wire::encode_signal_frame(&shutdown, wire::FrameType::kShutdown);
  EXPECT_EQ(shutdown, (Bytes{'A', 'G', 0x01, 0x07}));
}

// --- round-trip properties ------------------------------------------------

TEST(Wire, DataFrameRoundTripsEveryPayloadShape) {
  Xoshiro256SS rng(20260809);
  constexpr std::size_t kRumors = 37;  // not a multiple of 8: ragged tail
  for (int shape = 0; shape < 6; ++shape) {
    wire::DataFrame frame;
    frame.from = 3;
    frame.to = 5;
    frame.seq = 1 + rng.uniform(1000);
    for (int i = 0; i < 4; ++i) {
      PayloadPtr payload;
      switch (shape) {
        case 0:
          break;  // null payload
        case 1: {
          auto p = std::make_shared<TrivialPayload>();
          p->rumors = random_bits(kRumors, &rng);
          payload = std::move(p);
          break;
        }
        case 2: {
          auto p = std::make_shared<EpidemicPayload>();
          p->rumors = random_bits(kRumors, &rng);
          p->informed = InformedList(kRumors);
          for (std::size_t r = 0; r < kRumors; ++r)
            if (rng.uniform(2) == 0)
              p->informed.note_row(r, random_bits(kRumors, &rng));
          payload = std::move(p);
          break;
        }
        case 3: {
          auto p = std::make_shared<TearsPayload>();
          p->rumors = random_bits(kRumors, &rng);
          p->flag_up = rng.uniform(2) == 1;
          payload = std::move(p);
          break;
        }
        case 4: {
          auto p = std::make_shared<SyncGossipPayload>();
          p->rumors = random_bits(kRumors, &rng);
          payload = std::move(p);
          break;
        }
        case 5: {
          auto p = std::make_shared<LazyPayload>();
          p->rumors = random_bits(kRumors, &rng);
          payload = std::move(p);
          break;
        }
      }
      const Time send = rng.uniform(1 << 20);
      frame.envelopes.push_back(make_env(rng.next(), 3, 5, send,
                                         send + 1 + rng.uniform(64),
                                         std::move(payload)));
    }

    Bytes out;
    wire::encode_data_frame(&out, frame);
    wire::DataFrame back;
    ASSERT_EQ(wire::decode_data_frame(out.data(), out.size(), kRumors, &back),
              wire::DecodeError::kOk)
        << "shape " << shape;
    EXPECT_EQ(back.from, frame.from);
    EXPECT_EQ(back.to, frame.to);
    EXPECT_EQ(back.seq, frame.seq);
    ASSERT_EQ(back.envelopes.size(), frame.envelopes.size());
    for (std::size_t i = 0; i < frame.envelopes.size(); ++i) {
      const Envelope& sent = frame.envelopes[i];
      const Envelope& got = back.envelopes[i];
      EXPECT_EQ(got.id, sent.id);
      EXPECT_EQ(got.send_time, sent.send_time);
      EXPECT_EQ(got.deliver_after, sent.deliver_after);
      switch (shape) {
        case 0:
          EXPECT_EQ(got.payload.get(), nullptr);
          break;
        case 1: {
          const auto* a = payload_cast<TrivialPayload>(sent);
          const auto* b = payload_cast<TrivialPayload>(got);
          ASSERT_NE(b, nullptr);
          EXPECT_TRUE(a->rumors == b->rumors);
          break;
        }
        case 2: {
          const auto* a = payload_cast<EpidemicPayload>(sent);
          const auto* b = payload_cast<EpidemicPayload>(got);
          ASSERT_NE(b, nullptr);
          EXPECT_TRUE(a->rumors == b->rumors);
          EXPECT_TRUE(a->informed == b->informed);
          break;
        }
        case 3: {
          const auto* a = payload_cast<TearsPayload>(sent);
          const auto* b = payload_cast<TearsPayload>(got);
          ASSERT_NE(b, nullptr);
          EXPECT_TRUE(a->rumors == b->rumors);
          EXPECT_EQ(a->flag_up, b->flag_up);
          break;
        }
        case 4: {
          const auto* a = payload_cast<SyncGossipPayload>(sent);
          const auto* b = payload_cast<SyncGossipPayload>(got);
          ASSERT_NE(b, nullptr);
          EXPECT_TRUE(a->rumors == b->rumors);
          break;
        }
        case 5: {
          const auto* a = payload_cast<LazyPayload>(sent);
          const auto* b = payload_cast<LazyPayload>(got);
          ASSERT_NE(b, nullptr);
          EXPECT_TRUE(a->rumors == b->rumors);
          break;
        }
      }
    }
  }
}

TEST(Wire, ControlFramesRoundTrip) {
  Bytes out;
  wire::HelloFrame hello;
  hello.pid = 11;
  wire::encode_hello_frame(&out, hello);
  wire::HelloFrame hello_back;
  ASSERT_EQ(wire::decode_hello_frame(out.data(), out.size(), &hello_back),
            wire::DecodeError::kOk);
  EXPECT_EQ(hello_back.pid, 11u);

  out.clear();
  wire::PeerTableFrame table;
  table.ports = {0, 40000, 65535, 1024};
  wire::encode_peer_table_frame(&out, table);
  wire::PeerTableFrame table_back;
  ASSERT_EQ(
      wire::decode_peer_table_frame(out.data(), out.size(), &table_back),
      wire::DecodeError::kOk);
  EXPECT_EQ(table_back.ports, table.ports);

  out.clear();
  wire::StatusFrame status;
  status.pid = 7;
  status.quiescent = true;
  status.crashed = false;
  status.steps = 12345;
  status.sends = 678;
  status.deliveries = 654;
  status.discarded = 24;
  wire::encode_status_frame(&out, status);
  wire::StatusFrame status_back;
  ASSERT_EQ(wire::decode_status_frame(out.data(), out.size(), &status_back),
            wire::DecodeError::kOk);
  EXPECT_EQ(status_back.pid, status.pid);
  EXPECT_EQ(status_back.quiescent, status.quiescent);
  EXPECT_EQ(status_back.crashed, status.crashed);
  EXPECT_EQ(status_back.steps, status.steps);
  EXPECT_EQ(status_back.sends, status.sends);
  EXPECT_EQ(status_back.deliveries, status.deliveries);
  EXPECT_EQ(status_back.discarded, status.discarded);

  out.clear();
  wire::encode_bye_frame(&out, 9);
  ProcessId pid = 0;
  ASSERT_EQ(wire::decode_bye_frame(out.data(), out.size(), &pid),
            wire::DecodeError::kOk);
  EXPECT_EQ(pid, 9u);

  out.clear();
  wire::AckFrame ack;
  ack.receiver = 4;
  ack.sender = 2;
  ack.cum_seq = 77;
  ack.closed = true;
  wire::encode_ack_frame(&out, ack);
  wire::AckFrame ack_back;
  ASSERT_EQ(wire::decode_ack_frame(out.data(), out.size(), &ack_back),
            wire::DecodeError::kOk);
  EXPECT_EQ(ack_back.receiver, 4u);
  EXPECT_EQ(ack_back.sender, 2u);
  EXPECT_EQ(ack_back.cum_seq, 77u);
  EXPECT_TRUE(ack_back.closed);
}

// --- malformed-frame corpus -----------------------------------------------

/// Process count of rich_data_frame's group.
constexpr std::size_t kRichN = 12;

/// A structurally rich valid frame (epidemic payload: nested bitsets).
Bytes rich_data_frame() {
  auto payload = std::make_shared<EpidemicPayload>();
  payload->rumors = bits_of(kRichN, {0, 3, 11});
  payload->informed = InformedList(kRichN);
  payload->informed.note_row(3, bits_of(kRichN, {1, 2}));
  wire::DataFrame frame;
  frame.from = 1;
  frame.to = 0;
  frame.seq = 9;
  frame.envelopes.push_back(make_env(1000, 1, 0, 4, 7, payload));
  Bytes out;
  wire::encode_data_frame(&out, frame);
  return out;
}

TEST(Wire, EveryTruncationPrefixIsRejectedCleanly) {
  const Bytes full = rich_data_frame();
  wire::DataFrame sink;
  ASSERT_EQ(wire::decode_data_frame(full.data(), full.size(), kRichN, &sink),
            wire::DecodeError::kOk);
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_NE(wire::decode_data_frame(full.data(), len, kRichN, &sink),
              wire::DecodeError::kOk)
        << "prefix " << len;
  }
}

TEST(Wire, HeaderErrorsAreDistinguished) {
  const Bytes full = rich_data_frame();
  wire::DataFrame sink;

  Bytes bad = full;
  bad[0] = 'X';
  EXPECT_EQ(wire::decode_data_frame(bad.data(), bad.size(), kRichN, &sink),
            wire::DecodeError::kBadMagic);

  bad = full;
  bad[2] = 2;  // future version
  EXPECT_EQ(wire::decode_data_frame(bad.data(), bad.size(), kRichN, &sink),
            wire::DecodeError::kBadVersion);

  bad = full;
  bad[3] = 0;  // below kData
  EXPECT_EQ(wire::decode_data_frame(bad.data(), bad.size(), kRichN, &sink),
            wire::DecodeError::kBadType);
  bad[3] = 9;  // past kBye
  EXPECT_EQ(wire::decode_data_frame(bad.data(), bad.size(), kRichN, &sink),
            wire::DecodeError::kBadType);

  // A well-formed frame of the wrong type is kBadType, not a misparse.
  Bytes ack;
  wire::encode_ack_frame(&ack, wire::AckFrame{});
  EXPECT_EQ(wire::decode_data_frame(ack.data(), ack.size(), kRichN, &sink),
            wire::DecodeError::kBadType);
}

TEST(Wire, OverlongVarintsAreRejected) {
  wire::DataFrame sink;
  // Zero continuation tail: 0x80 0x00 encodes 0 non-canonically.
  Bytes frame;
  wire::put_header(&frame, wire::FrameType::kData);
  frame.push_back(0x80);
  frame.push_back(0x00);
  EXPECT_EQ(wire::decode_data_frame(frame.data(), frame.size(), 8, &sink),
            wire::DecodeError::kOverlongVarint);

  // Tenth byte carrying more than the 64th bit.
  frame.resize(wire::kHeaderBytes);
  for (int i = 0; i < 9; ++i) frame.push_back(0xff);
  frame.push_back(0x02);
  EXPECT_EQ(wire::decode_data_frame(frame.data(), frame.size(), 8, &sink),
            wire::DecodeError::kOverlongVarint);

  // No terminator within ten bytes.
  frame.resize(wire::kHeaderBytes);
  for (int i = 0; i < 10; ++i) frame.push_back(0xff);
  EXPECT_EQ(wire::decode_data_frame(frame.data(), frame.size(), 8, &sink),
            wire::DecodeError::kOverlongVarint);
}

TEST(Wire, OutOfRangeValuesAreRejected) {
  wire::DataFrame sink;
  // The frames below carry 8-bit sets unless a case says otherwise.
  const auto expect_bad = [&](const Bytes& frame, const char* what,
                              std::size_t n = 8) {
    EXPECT_EQ(wire::decode_data_frame(frame.data(), frame.size(), n, &sink),
              wire::DecodeError::kBadValue)
        << what;
  };

  Bytes frame;
  const auto data_prefix = [&](std::uint64_t seq, std::uint64_t count) {
    frame.clear();
    wire::put_header(&frame, wire::FrameType::kData);
    wire::put_varint(&frame, 1);  // from
    wire::put_varint(&frame, 0);  // to
    wire::put_varint(&frame, seq);
    wire::put_varint(&frame, count);
  };

  data_prefix(/*seq=*/0, /*count=*/0);
  expect_bad(frame, "seq zero");

  data_prefix(/*seq=*/1, /*count=*/wire::kMaxCount + 1);
  expect_bad(frame, "count over cap");

  // Under the cap, but more envelopes than the frame's bytes can hold (each
  // takes at least 4): rejected before a vector is sized from the count.
  data_prefix(/*seq=*/1, /*count=*/wire::kMaxCount);
  expect_bad(frame, "count beyond the frame's bytes");

  data_prefix(/*seq=*/1, /*count=*/1);
  wire::put_varint(&frame, 8);  // id
  wire::put_varint(&frame, 4);  // send_time
  wire::put_varint(&frame, 0);  // delay zero: deliver_after <= send_time
  expect_bad(frame, "zero delay");

  const auto env_prefix = [&] {
    data_prefix(/*seq=*/1, /*count=*/1);
    wire::put_varint(&frame, 8);  // id
    wire::put_varint(&frame, 4);  // send_time
    wire::put_varint(&frame, 2);  // delay
    wire::put_varint(&frame, 1);  // payload tag: trivial (bitset follows)
  };

  env_prefix();
  wire::put_varint(&frame, wire::kMaxBits + 1);  // bit count over cap
  wire::put_varint(&frame, 0);
  expect_bad(frame, "bits over cap");

  // 17 bytes that declare a 2^26-bit set and carry none of it: the decoder
  // must not size an 8 MiB bitset from the declared count.
  env_prefix();
  wire::put_varint(&frame, wire::kMaxBits);
  wire::put_varint(&frame, 0);
  ASSERT_EQ(frame.size(), 17u);
  expect_bad(frame, "declared size far beyond n");

  // A well-formed 8-bit set is still rejected by a receiver whose n is not 8.
  env_prefix();
  wire::put_varint(&frame, 8);
  wire::put_varint(&frame, 1);
  frame.push_back(0x03);
  EXPECT_EQ(wire::decode_data_frame(frame.data(), frame.size(), 8, &sink),
            wire::DecodeError::kOk);
  expect_bad(frame, "bitset of another n", /*n=*/4);
  expect_bad(frame, "bitset of another n", /*n=*/9);

  env_prefix();
  wire::put_varint(&frame, 8);  // 8 bits
  wire::put_varint(&frame, 2);  // but 2 bytes claimed (> ceil(8/8))
  frame.push_back(0x01);
  frame.push_back(0x01);
  expect_bad(frame, "byte count over bit count");

  env_prefix();
  wire::put_varint(&frame, 8);
  wire::put_varint(&frame, 1);
  frame.push_back(0x00);  // trailing zero byte: non-canonical
  expect_bad(frame, "trailing zero bitset byte");

  env_prefix();
  wire::put_varint(&frame, 1);  // 1 bit
  wire::put_varint(&frame, 1);
  frame.push_back(0x02);  // bit 1 set, beyond the declared size
  expect_bad(frame, "set bit beyond size", /*n=*/1);

  // An epidemic informed list must have one row per rumor of V, each row
  // absent (0 bits) or of V's size.
  const auto epidemic_prefix = [&](std::uint64_t rows) {
    data_prefix(/*seq=*/1, /*count=*/1);
    wire::put_varint(&frame, 8);  // id
    wire::put_varint(&frame, 4);  // send_time
    wire::put_varint(&frame, 2);  // delay
    wire::put_varint(&frame, 2);  // payload tag: epidemic
    wire::put_varint(&frame, 8);  // V: 8 bits
    wire::put_varint(&frame, 1);
    frame.push_back(0xff);
    wire::put_varint(&frame, rows);
  };
  epidemic_prefix(/*rows=*/2);
  for (int row = 0; row < 2; ++row) {
    wire::put_varint(&frame, 8);
    wire::put_varint(&frame, 1);
    frame.push_back(0x03);
  }
  expect_bad(frame, "fewer informed rows than rumors");

  epidemic_prefix(/*rows=*/8);
  for (int row = 0; row < 8; ++row) {
    wire::put_varint(&frame, row == 5 ? 4 : 8);  // row 5 has 4 bits
    wire::put_varint(&frame, 1);
    frame.push_back(0x03);
  }
  expect_bad(frame, "informed row of another size");

  // Unknown payload shape tag.
  data_prefix(/*seq=*/1, /*count=*/1);
  wire::put_varint(&frame, 8);
  wire::put_varint(&frame, 4);
  wire::put_varint(&frame, 2);
  wire::put_varint(&frame, 6);  // no such tag
  EXPECT_EQ(wire::decode_data_frame(frame.data(), frame.size(), 8, &sink),
            wire::DecodeError::kBadPayloadTag);

  // Flag bytes must be canonical booleans / flag sets.
  Bytes ack;
  wire::encode_ack_frame(&ack, wire::AckFrame{});
  ack.back() = 2;
  wire::AckFrame ack_sink;
  EXPECT_EQ(wire::decode_ack_frame(ack.data(), ack.size(), &ack_sink),
            wire::DecodeError::kBadValue);

  Bytes status;
  wire::encode_status_frame(&status, wire::StatusFrame{});
  status[wire::kHeaderBytes + 1] = 4;  // flags past quiescent|crashed
  wire::StatusFrame status_sink;
  EXPECT_EQ(wire::decode_status_frame(status.data(), status.size(),
                                      &status_sink),
            wire::DecodeError::kBadValue);

  // Peer table port out of uint16 range.
  Bytes table;
  wire::put_header(&table, wire::FrameType::kPeerTable);
  wire::put_varint(&table, 1);
  wire::put_varint(&table, 0x10000);
  wire::PeerTableFrame table_sink;
  EXPECT_EQ(
      wire::decode_peer_table_frame(table.data(), table.size(), &table_sink),
      wire::DecodeError::kBadValue);

  // More ports than bytes left in the frame.
  table.clear();
  wire::put_header(&table, wire::FrameType::kPeerTable);
  wire::put_varint(&table, wire::kMaxCount);
  EXPECT_EQ(
      wire::decode_peer_table_frame(table.data(), table.size(), &table_sink),
      wire::DecodeError::kBadValue);
}

TEST(Wire, TrailingBytesAreRejected) {
  Bytes frame = rich_data_frame();
  frame.push_back(0x00);
  wire::DataFrame sink;
  EXPECT_EQ(wire::decode_data_frame(frame.data(), frame.size(), kRichN, &sink),
            wire::DecodeError::kTrailingBytes);
}

// --- raw datagrams against a live socket ----------------------------------

TEST(Wire, DuplicateSeqAndGarbageAreAbsorbedByTheTransport) {
  UdpTransportConfig tc;
  tc.n = 2;
  UdpTransport transport(std::move(tc));

  // One valid data frame 0 -> 1, injected twice (a retransmit duplicate),
  // plus a garbage datagram. send_control writes the raw bytes verbatim
  // from endpoint 0's socket, so the receiver sees exactly these datagrams.
  wire::DataFrame frame;
  frame.from = 0;
  frame.to = 1;
  frame.seq = 1;
  frame.envelopes.push_back(make_env(5, 0, 1, 0, 2));
  Bytes bytes;
  wire::encode_data_frame(&bytes, frame);
  const std::uint16_t port = transport.local_port(1);
  transport.send_control(0, port, bytes);
  transport.send_control(0, port, bytes);
  transport.send_control(0, port, {0xde, 0xad, 0xbe, 0xef});

  std::vector<Envelope> out;
  transport.drain(1, 5, &out);
  ASSERT_EQ(out.size(), 1u);  // delivered exactly once
  EXPECT_EQ(out[0].id, 5u);
  const UdpTransport::Stats stats = transport.stats();
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_EQ(stats.decode_errors, 1u);
}

TEST(Wire, OutOfOrderFramesAreHeldForSeqOrder) {
  UdpTransportConfig tc;
  tc.n = 2;
  UdpTransport transport(std::move(tc));

  const auto frame_bytes = [](std::uint64_t seq, MessageId id) {
    wire::DataFrame frame;
    frame.from = 0;
    frame.to = 1;
    frame.seq = seq;
    frame.envelopes.push_back(make_env(id, 0, 1, 0, 1));
    Bytes bytes;
    wire::encode_data_frame(&bytes, frame);
    return bytes;
  };
  const std::uint16_t port = transport.local_port(1);
  // seq 2 arrives first: held back, not released out of order.
  transport.send_control(0, port, frame_bytes(2, 21));
  std::vector<Envelope> out;
  transport.drain(1, 5, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(transport.stats().held_out_of_order, 1u);
  // seq 1 fills the gap: both release, in id (= seq) order.
  transport.send_control(0, port, frame_bytes(1, 20));
  transport.drain(1, 6, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 20u);
  EXPECT_EQ(out[1].id, 21u);
}

}  // namespace
}  // namespace asyncgossip
