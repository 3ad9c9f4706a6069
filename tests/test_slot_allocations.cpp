// Allocation tripwire for the KV service's consensus slot: once a replica
// group's slot engine has run a few hundred slots, a slot allocates
// nothing (svc/replica.h; docs/PERFORMANCE.md, "The consensus slot").
// This binary's global operator new counts the allocations the calling
// thread makes while a counter is armed (a binary of its own, so the
// replacement stays out of the other tests' sanitizer runs).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "consensus/cr_gossip.h"
#include "svc/replica.h"

namespace {
thread_local bool g_counting = false;
thread_local std::uint64_t g_allocations = 0;
}  // namespace

namespace {
void* counted_malloc(std::size_t size) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size != 0 ? size : 1);
}
}  // namespace

// Every unaligned form is replaced, so whatever allocates through one of
// them frees through a matching one (a sanitizer runtime supplies the
// others and would report a mismatch).
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace asyncgossip {
namespace {

TEST(SvcReplica, SteadyStateSlotsDoNotAllocate) {
  register_consensus_algorithms();
  for (const GossipAlgorithm alg :
       {GossipAlgorithm::kCrTears, GossipAlgorithm::kCrEars,
        GossipAlgorithm::kCrSears}) {
    svc::ReplicaGroupConfig cfg;
    cfg.n = 8;
    cfg.f = 3;
    cfg.algorithm = alg;
    cfg.seed = 1;
    cfg.inject_crashes = 2;  // svc-open's group: two replicas down
    cfg.crash_horizon_slots = 1;
    svc::ReplicaGroup group(cfg);
    for (int slot = 0; slot < 300; ++slot) group.commit_slot();
    g_allocations = 0;
    g_counting = true;
    std::uint64_t committed = 0;
    for (int slot = 0; slot < 200; ++slot)
      committed += group.commit_slot().committed ? 1 : 0;
    g_counting = false;
    EXPECT_EQ(committed, 200u) << to_string(alg);
    EXPECT_EQ(g_allocations, 0u)
        << to_string(alg) << ": heap allocations over 200 warm slots";
  }
}

}  // namespace
}  // namespace asyncgossip
