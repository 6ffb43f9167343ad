// Heap traffic on the success paths every replay takes millions of times: a
// passing ensure(), a bus transaction through the ECU router, and the
// quantum boundary of a core spinning in a kick-and-poll loop. All must be
// allocation-free. This file is its own binary because it replaces the
// global operator new/delete to count calls.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "vps/ecu/platform.hpp"
#include "vps/hw/peripherals.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/support/ensure.hpp"
#include "vps/tlm/payload.hpp"
#include "vps/tlm/sockets.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using vps::ecu::EcuMemoryMap;
using vps::tlm::Command;
using vps::tlm::GenericPayload;

constexpr int kIterations = 10000;

/// Number of operator new calls made while running `fn`.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(HotPathAlloc, PassingEnsureWithLongLiteralDoesNotAllocate) {
  volatile bool holds = true;  // keeps the check from folding away
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < kIterations; ++i) {
      vps::support::ensure(holds, "a literal message well past the small-string buffer");
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(HotPathAlloc, WarmedRouterTransactionsDoNotAllocate) {
  vps::sim::Kernel kernel;
  vps::ecu::EcuPlatform ecu(kernel, "ecu");
  vps::tlm::InitiatorSocket initiator("hot_path.init");
  initiator.bind(ecu.bus().target_socket());

  bool all_ok = true;
  std::uint64_t last_read = 0;
  auto transact = [&](Command cmd, std::uint32_t address, std::uint32_t value) {
    GenericPayload p(cmd, address, 4);
    if (cmd == Command::kWrite) p.set_value_le(value);
    vps::sim::Time delay = vps::sim::Time::zero();
    initiator.b_transport(p, delay);
    all_ok = all_ok && p.ok();
    if (cmd == Command::kRead) last_read = p.value_le();
  };
  // One read and one write into RAM and into the watchdog (a kick).
  auto round = [&](std::uint32_t i) {
    transact(Command::kWrite, EcuMemoryMap::kRamBase + 0x100, i);
    transact(Command::kRead, EcuMemoryMap::kRamBase + 0x100, 0);
    transact(Command::kWrite, EcuMemoryMap::kWatchdogBase + vps::hw::Watchdog::kKick, 1);
    transact(Command::kRead, EcuMemoryMap::kWatchdogBase + vps::hw::Watchdog::kPeriodUs, 0);
  };

  for (std::uint32_t i = 0; i < 16; ++i) round(i);  // warm lazily grown queues
  const std::size_t n = allocations_during([&] {
    for (std::uint32_t i = 0; i < kIterations; ++i) round(i);
  });

  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(last_read, 10000u);  // watchdog period register, power-on value
  EXPECT_EQ(ecu.ram().peek32(0x100), static_cast<std::uint32_t>(kIterations - 1));
  EXPECT_EQ(ecu.bus().forwarded(), 4u * (16u + kIterations));
  EXPECT_EQ(ecu.bus().decode_errors(), 0u);
}

// Each quantum of a kick-and-poll loop syncs the core with the kernel (a
// timed resume), fires the watchdog's kick event and re-arms its timed wait.
// Once the kernel's queues and the event's waiter list have grown to their
// working size, none of that may touch the heap.
TEST(HotPathAlloc, WarmedKickAndPollQuantumDoesNotAllocate) {
  using vps::sim::Time;
  vps::sim::Kernel kernel;
  vps::ecu::EcuPlatform ecu(kernel, "ecu");
  ecu.load_program(R"(
      li   r2, 0x40002000    ; watchdog
      addi r3, r0, 2000
      sw   r3, 4(r2)         ; period 2000us
      addi r3, r0, 1
      sw   r3, 0(r2)         ; enable
    loop:
      sw   r0, 8(r2)         ; kick
      lw   r5, 12(r2)        ; TIMEOUT_COUNT
      beq  r5, r0, loop
      halt
  )");
  // Past one watchdog period, so superseded timeouts start to retire and
  // the timed queue stops growing.
  kernel.run(Time::ms(5));
  const std::uint64_t syncs_before = ecu.cpu().quantum_keeper().sync_count();
  const std::size_t n = allocations_during([&] { kernel.run(Time::ms(15)); });
  const std::uint64_t quanta = ecu.cpu().quantum_keeper().sync_count() - syncs_before;

  EXPECT_EQ(n, 0u) << "over " << quanta << " quanta";
  EXPECT_GE(quanta, 990u);
  EXPECT_EQ(ecu.watchdog().timeout_count(), 0u);
  EXPECT_EQ(ecu.cpu().state(), vps::hw::Cpu::State::kRunning);
}

// A process re-arming wait_with_timeout on an event that always wins, as a
// watchdog does on every kick. The measured stretch is shorter than one
// timeout, so no superseded timeout comes due in it: the timed queue may
// only stay at its size if each new wait takes over the old entry.
TEST(HotPathAlloc, WarmedWaitWithTimeoutLoopDoesNotAllocate) {
  using vps::sim::Time;
  vps::sim::Kernel kernel;
  vps::sim::Event kick(kernel, "kick");
  std::uint64_t kicks_seen = 0;
  kernel.spawn("kicker", [](vps::sim::Event& kick) -> vps::sim::Coro {
    for (;;) {
      kick.notify();
      co_await vps::sim::delay(Time::us(1));
    }
  }(kick));
  kernel.spawn("guard", [](vps::sim::Event& kick, std::uint64_t& seen) -> vps::sim::Coro {
    for (;;) {
      if (co_await vps::sim::wait_with_timeout(kick, Time::ms(1))) ++seen;
    }
  }(kick, kicks_seen));
  kernel.run(Time::us(16));  // warm the queues; well inside one timeout
  const std::size_t n = allocations_during([&] { kernel.run(Time::us(900)); });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(kicks_seen, 901u);  // one kick per microsecond, 0 through 900
}

}  // namespace
