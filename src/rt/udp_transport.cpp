#include "rt/udp_transport.h"

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/assert.h"

namespace asyncgossip {

namespace {

constexpr std::size_t kRecvBufferBytes = 1 << 16;

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

UdpTransport::UdpTransport(UdpTransportConfig config)
    : config_(std::move(config)), endpoints_(config_.n) {
  AG_ASSERT_MSG(config_.n > 0, "udp transport needs at least one process");
  {
    const MutexLock lock(&peers_mu_);
    peer_port_.assign(config_.n, 0);
  }
  std::vector<ProcessId> local = config_.local;
  if (local.empty())
    for (ProcessId p = 0; p < config_.n; ++p) local.push_back(p);
  for (ProcessId p : local) {
    AG_ASSERT_MSG(p < config_.n, "local endpoint out of range");
    // Distinct fault streams per endpoint, derived from the one shim seed.
    auto ep = std::make_unique<Endpoint>(
        p, config_.n, config_.faults.seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
    ep->fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    AG_ASSERT_MSG(ep->fd >= 0, "udp socket() failed");
    const int rcvbuf = 1 << 21;
    ::setsockopt(ep->fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr = loopback(0);
    int rc = ::bind(ep->fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr));
    AG_ASSERT_MSG(rc == 0, "udp bind(127.0.0.1:0) failed");
    socklen_t len = sizeof(addr);
    rc = ::getsockname(ep->fd, reinterpret_cast<sockaddr*>(&addr), &len);
    AG_ASSERT_MSG(rc == 0, "udp getsockname() failed");
    ep->port = ntohs(addr.sin_port);
    endpoints_[p] = std::move(ep);
  }
  // Single-object deployments know every port already.
  const MutexLock lock(&peers_mu_);
  for (ProcessId p = 0; p < config_.n; ++p)
    if (endpoints_[p] != nullptr) peer_port_[p] = endpoints_[p]->port;
}

UdpTransport::~UdpTransport() {
  for (auto& ep : endpoints_)
    if (ep != nullptr && ep->fd >= 0) ::close(ep->fd);
}

UdpTransport::Endpoint* UdpTransport::endpoint(ProcessId p) const {
  AG_ASSERT_MSG(p < endpoints_.size(), "endpoint out of range");
  Endpoint* ep = endpoints_[p].get();
  AG_ASSERT_MSG(ep != nullptr, "endpoint is not hosted by this transport");
  return ep;
}

bool UdpTransport::is_local(ProcessId p) const {
  return p < endpoints_.size() && endpoints_[p] != nullptr;
}

std::uint16_t UdpTransport::local_port(ProcessId p) const {
  return endpoint(p)->port;
}

void UdpTransport::set_peer(ProcessId p, std::uint16_t port) {
  AG_ASSERT_MSG(p < config_.n, "peer out of range");
  const MutexLock lock(&peers_mu_);
  peer_port_[p] = port;
}

sockaddr_in UdpTransport::peer_addr(ProcessId p) const {
  std::uint16_t port = 0;
  {
    const MutexLock lock(&peers_mu_);
    port = peer_port_[p];
  }
  return loopback(port);
}

void UdpTransport::send_datagram(Endpoint& ep, const sockaddr_in& to,
                                 const std::vector<std::uint8_t>& bytes,
                                 bool shimmable) {
  // Port 0 = peer not yet known; the frame stays queued for retransmit.
  if (to.sin_port == 0) return;
  if (shimmable && config_.faults.any()) {
    if (ep.fault_rng.bernoulli(config_.faults.drop_probability)) {
      stats_.shim_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (ep.fault_rng.bernoulli(config_.faults.reorder_probability)) {
      stats_.shim_reordered.fetch_add(1, std::memory_order_relaxed);
      ep.reordered.emplace_back(to, bytes);
      return;
    }
  }
  const auto emit = [&](const sockaddr_in& addr,
                        const std::vector<std::uint8_t>& data) {
    // Send failures (ENOBUFS, ECONNREFUSED from a peer that is gone) are
    // indistinguishable from loss and handled the same way: retransmit.
    (void)::sendto(ep.fd, data.data(), data.size(), 0,
                   reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  };
  emit(to, bytes);
  if (shimmable && config_.faults.any() &&
      ep.fault_rng.bernoulli(config_.faults.duplicate_probability)) {
    stats_.shim_duplicated.fetch_add(1, std::memory_order_relaxed);
    emit(to, bytes);
  }
  // A send happened: flush any shim-held datagrams *after* it, realizing
  // the reordering.
  if (!ep.reordered.empty()) {
    std::vector<std::pair<sockaddr_in, std::vector<std::uint8_t>>> held;
    held.swap(ep.reordered);
    for (const auto& [addr, data] : held) emit(addr, data);
  }
}

Time UdpTransport::submit(Envelope env) {
  AG_ASSERT_MSG(env.to < config_.n, "submit to out-of-range process");
  Endpoint& ep = *endpoint(env.from);
  const MutexLock lock(&ep.mu);
  LinkTx& link = ep.tx[env.to];
  // Per-link FIFO, sender side: stamps on one link never decrease. The
  // receiver re-floors on release, which can only agree or delay further.
  const Time after = std::max(env.deliver_after, link.stamp_floor);
  link.stamp_floor = after;
  env.deliver_after = after;
  // Batch per destination per tick: a new tick (or an over-full batch)
  // flushes the staged one first.
  const std::size_t envelope_bytes =
      (env.payload ? env.payload->byte_size() : 0) + 64;
  if (!link.batch.empty() && (link.batch_tick != env.send_time ||
                              link.batch_bytes + envelope_bytes >
                                  wire::kMaxFrameBytes - wire::kHeaderBytes))
    flush_link(ep, env.to, env.send_time);
  link.batch_tick = env.send_time;
  link.batch_bytes += envelope_bytes;
  link.batch.push_back(std::move(env));
  submitted_.fetch_add(1, std::memory_order_acq_rel);
  return after;
}

void UdpTransport::flush_link(Endpoint& ep, ProcessId to, Time now) {
  LinkTx& link = ep.tx[to];
  if (link.batch.empty()) return;
  const sockaddr_in dest = peer_addr(to);
  // Greedy split: encode envelope by envelope, closing the frame when the
  // next one would cross the datagram ceiling.
  std::size_t i = 0;
  while (i < link.batch.size()) {
    wire::DataFrame frame;
    frame.from = ep.pid;
    frame.to = to;
    frame.seq = link.next_seq++;
    std::size_t frame_bytes = wire::kHeaderBytes + 40;  // header + meta slack
    while (i < link.batch.size()) {
      std::vector<std::uint8_t> one;
      wire::put_varint(&one, link.batch[i].id);
      wire::put_varint(&one, link.batch[i].send_time);
      wire::put_varint(&one,
                       link.batch[i].deliver_after - link.batch[i].send_time);
      wire::encode_payload(&one, link.batch[i].payload.get());
      if (!frame.envelopes.empty() &&
          frame_bytes + one.size() > wire::kMaxFrameBytes)
        break;
      frame_bytes += one.size();
      frame.envelopes.push_back(std::move(link.batch[i]));
      ++i;
    }
    TxFrame tx;
    tx.seq = frame.seq;
    wire::encode_data_frame(&tx.bytes, frame);
    tx.next_retx = now + config_.retransmit_after;
    stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
    send_datagram(ep, dest, tx.bytes, /*shimmable=*/true);
    link.unacked.push_back(std::move(tx));
  }
  link.batch.clear();
  link.batch_bytes = 0;
}

void UdpTransport::flush_all(Endpoint& ep, Time now) {
  for (ProcessId to = 0; to < config_.n; ++to) flush_link(ep, to, now);
}

void UdpTransport::flush(ProcessId from, Time now) {
  Endpoint& ep = *endpoint(from);
  const MutexLock lock(&ep.mu);
  flush_all(ep, now);
}

void UdpTransport::release_frame(Endpoint& ep, RxFrame frame) {
  for (Envelope& env : frame.envelopes) {
    settled_.fetch_add(1, std::memory_order_acq_rel);
    if (ep.closed) {
      discard_reap_.fetch_add(1, std::memory_order_acq_rel);
      continue;
    }
    Time after = env.deliver_after;
    // No-late stamp: nothing becomes deliverable at or before a tick the
    // receiver already drained.
    if (ep.drained_once && after <= ep.last_drain_tick)
      after = ep.last_drain_tick + 1;
    // Per-link FIFO, receiver side: release order is seq order, so this
    // floor keeps stamps monotone per link even across no-late bumps.
    Time& floor = ep.release_floor[env.from];
    after = std::max(after, floor);
    floor = after;
    env.deliver_after = after;
    ep.pending.push_back(std::move(env));
  }
}

void UdpTransport::handle_data(Endpoint& ep, wire::DataFrame frame,
                               const sockaddr_in& src) {
  // A datagram is untrusted input even after a clean decode: range-check
  // before indexing, drop instead of aborting.
  if (frame.from >= config_.n || frame.to != ep.pid) {
    stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  LinkRx& link = ep.rx[frame.from];
  bool duplicate = frame.seq < link.next_seq;
  if (!duplicate) {
    auto it = std::lower_bound(
        link.held.begin(), link.held.end(), frame.seq,
        [](const RxFrame& f, std::uint64_t seq) { return f.seq < seq; });
    if (it != link.held.end() && it->seq == frame.seq) {
      duplicate = true;
    } else {
      RxFrame rx;
      rx.seq = frame.seq;
      rx.envelopes = std::move(frame.envelopes);
      if (rx.seq != link.next_seq)
        stats_.held_out_of_order.fetch_add(1, std::memory_order_relaxed);
      link.held.insert(it, std::move(rx));
      // Release the contiguous prefix, in seq order.
      std::size_t released = 0;
      while (released < link.held.size() &&
             link.held[released].seq == link.next_seq) {
        release_frame(ep, std::move(link.held[released]));
        ++link.next_seq;
        ++released;
      }
      link.held.erase(link.held.begin(),
                      link.held.begin() + static_cast<std::ptrdiff_t>(released));
    }
  }
  if (duplicate)
    stats_.duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
  // Cumulative ack — also for duplicates (their first ack may have been
  // lost). Addressed to the datagram's source, so no port table needed.
  wire::AckFrame ack;
  ack.receiver = ep.pid;
  ack.sender = frame.from;
  ack.cum_seq = link.next_seq - 1;
  ack.closed = ep.closed;
  std::vector<std::uint8_t> bytes;
  wire::encode_ack_frame(&bytes, ack);
  stats_.acks_sent.fetch_add(1, std::memory_order_relaxed);
  send_datagram(ep, src, bytes, /*shimmable=*/true);
}

void UdpTransport::handle_ack(Endpoint& ep, const wire::AckFrame& ack) {
  if (ack.sender != ep.pid || ack.receiver >= config_.n) return;
  LinkTx& link = ep.tx[ack.receiver];
  link.unacked.erase(
      std::remove_if(link.unacked.begin(), link.unacked.end(),
                     [&](const TxFrame& f) { return f.seq <= ack.cum_seq; }),
      link.unacked.end());
}

void UdpTransport::pump(Endpoint& ep, Time now) {
  (void)now;
  std::uint8_t buf[kRecvBufferBytes];
  while (true) {
    sockaddr_in src;
    socklen_t src_len = sizeof(src);
    const ssize_t got =
        ::recvfrom(ep.fd, buf, sizeof(buf), MSG_DONTWAIT,
                   reinterpret_cast<sockaddr*>(&src), &src_len);
    if (got < 0) break;  // EAGAIN or a transient error: nothing more now
    wire::FrameType type;
    if (wire::peek_type(buf, static_cast<std::size_t>(got), &type) !=
        wire::DecodeError::kOk) {
      stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    switch (type) {
      case wire::FrameType::kData: {
        wire::DataFrame frame;
        if (wire::decode_data_frame(buf, static_cast<std::size_t>(got),
                                    config_.n, &frame) !=
            wire::DecodeError::kOk) {
          stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        handle_data(ep, std::move(frame), src);
        break;
      }
      case wire::FrameType::kAck: {
        wire::AckFrame ack;
        if (wire::decode_ack_frame(buf, static_cast<std::size_t>(got), &ack) !=
            wire::DecodeError::kOk) {
          stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        handle_ack(ep, ack);
        break;
      }
      default: {
        ControlMsg msg;
        msg.type = type;
        msg.bytes.assign(buf, buf + got);
        msg.src_port = ntohs(src.sin_port);
        ep.control.push_back(std::move(msg));
        break;
      }
    }
  }
}

void UdpTransport::retransmit(Endpoint& ep, Time now) {
  for (ProcessId to = 0; to < config_.n; ++to) {
    LinkTx& link = ep.tx[to];
    if (link.unacked.empty()) continue;
    const sockaddr_in dest = peer_addr(to);
    for (TxFrame& f : link.unacked) {
      if (f.expired || now < f.next_retx) continue;
      if (f.retx >= config_.max_retransmits) {
        f.expired = true;
        stats_.expired.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      ++f.retx;
      const int shift = std::min(f.retx, 6);
      f.next_retx = now + (config_.retransmit_after << shift);
      stats_.retransmits.fetch_add(1, std::memory_order_relaxed);
      send_datagram(ep, dest, f.bytes, /*shimmable=*/true);
    }
  }
}

std::size_t UdpTransport::drain(ProcessId p, Time now,
                                std::vector<Envelope>* out) {
  Endpoint& ep = *endpoint(p);
  const MutexLock lock(&ep.mu);
  // Arrivals processed now were sent before this drain: floor them against
  // the ticks drained so far, then record `now` and release what is due.
  flush_all(ep, now);
  pump(ep, now);
  retransmit(ep, now);
  ep.drained_once = true;
  ep.last_drain_tick = std::max(ep.last_drain_tick, now);
  const std::size_t first = out->size();
  std::size_t kept = 0;
  for (Envelope& env : ep.pending) {
    if (env.deliver_after <= now)
      out->push_back(std::move(env));
    else
      ep.pending[kept++] = std::move(env);
  }
  ep.pending.resize(kept);
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end(),
            [](const Envelope& a, const Envelope& b) { return a.id < b.id; });
  return out->size() - first;
}

std::size_t UdpTransport::close_inbox(ProcessId p) {
  Endpoint& ep = *endpoint(p);
  const MutexLock lock(&ep.mu);
  // A crashing process's already-submitted sends are in the network and
  // must still go out (the model's prefix semantics) — flush before
  // closing; service() keeps retransmitting them afterwards.
  flush_all(ep, ep.last_drain_tick);
  ep.closed = true;
  const std::size_t discarded = ep.pending.size();
  ep.pending.clear();
  return discarded;
}

void UdpTransport::service(Time now) {
  for (auto& ep : endpoints_) {
    if (ep == nullptr) continue;
    const MutexLock lock(&ep->mu);
    pump(*ep, now);
    retransmit(*ep, now);
  }
}

std::size_t UdpTransport::reap_discarded() {
  return static_cast<std::size_t>(
      discard_reap_.exchange(0, std::memory_order_acq_rel));
}

void UdpTransport::send_control(ProcessId p, std::uint16_t port,
                                const std::vector<std::uint8_t>& frame) {
  Endpoint& ep = *endpoint(p);
  const MutexLock lock(&ep.mu);
  send_datagram(ep, loopback(port), frame, /*shimmable=*/false);
}

std::size_t UdpTransport::take_control(ProcessId p,
                                       std::vector<ControlMsg>* out) {
  Endpoint& ep = *endpoint(p);
  const MutexLock lock(&ep.mu);
  pump(ep, ep.last_drain_tick);
  const std::size_t count = ep.control.size();
  for (ControlMsg& msg : ep.control) out->push_back(std::move(msg));
  ep.control.clear();
  return count;
}

UdpTransport::Stats UdpTransport::stats() const {
  Stats s;
  s.frames_sent = stats_.frames_sent.load(std::memory_order_relaxed);
  s.retransmits = stats_.retransmits.load(std::memory_order_relaxed);
  s.expired = stats_.expired.load(std::memory_order_relaxed);
  s.acks_sent = stats_.acks_sent.load(std::memory_order_relaxed);
  s.duplicates_dropped =
      stats_.duplicates_dropped.load(std::memory_order_relaxed);
  s.held_out_of_order =
      stats_.held_out_of_order.load(std::memory_order_relaxed);
  s.decode_errors = stats_.decode_errors.load(std::memory_order_relaxed);
  s.shim_dropped = stats_.shim_dropped.load(std::memory_order_relaxed);
  s.shim_duplicated = stats_.shim_duplicated.load(std::memory_order_relaxed);
  s.shim_reordered = stats_.shim_reordered.load(std::memory_order_relaxed);
  return s;
}

}  // namespace asyncgossip
