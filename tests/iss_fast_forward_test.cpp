// Poll-loop fast-forward in hw::Cpu: the b_repeat contract of each layer it
// relies on, and the oracle for the whole path. A no-op trace hook keeps the
// core on its per-instruction path, so every seeded schedule below runs
// twice, traced and untraced, and must agree on every counter, on time and
// on every observable output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "vps/apps/caps.hpp"
#include "vps/can/bus.hpp"
#include "vps/ecu/platform.hpp"
#include "vps/fault/injector.hpp"
#include "vps/fault/scenario.hpp"
#include "vps/hw/assembler.hpp"
#include "vps/obs/probe.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/support/crc.hpp"
#include "vps/support/rng.hpp"
#include "vps/tlm/payload.hpp"
#include "vps/tlm/router.hpp"
#include "vps/tlm/sockets.hpp"

namespace {

using namespace vps;
using ecu::EcuMemoryMap;
using fault::FaultDescriptor;
using fault::FaultType;
using sim::Time;
using tlm::Command;
using tlm::GenericPayload;

GenericPayload payload(Command cmd, std::uint64_t address) {
  GenericPayload p(cmd, address, 4);
  return p;
}

// --- the b_repeat contract, layer by layer --------------------------------

TEST(NotifyRepeat, CountsOnlyWhileADeltaNotificationIsPending) {
  sim::Kernel k;
  sim::Event e(k, "e");
  EXPECT_FALSE(e.notify_repeat(0));
  EXPECT_FALSE(e.notify_repeat(5));
  EXPECT_EQ(k.stats().notifications, 0u);

  e.notify();
  EXPECT_TRUE(e.notify_repeat(0));
  EXPECT_EQ(k.stats().notifications, 1u);
  EXPECT_TRUE(e.notify_repeat(41));
  EXPECT_EQ(k.stats().notifications, 42u);  // same as 41 more notify() calls

  k.run();
  EXPECT_EQ(e.fire_count(), 1u);
  EXPECT_FALSE(e.notify_repeat(1));  // fired: nothing pending any more
}

TEST(NotifyRepeat, RefusesWhileAnObserverIsAttached) {
  sim::Kernel k;
  sim::Event e(k, "e");
  sim::KernelObserver observer;
  k.add_observer(observer);
  e.notify();
  EXPECT_FALSE(e.notify_repeat(0));
  EXPECT_FALSE(e.notify_repeat(3));
  EXPECT_EQ(k.stats().notifications, 1u);
  k.remove_observer(observer);
  EXPECT_TRUE(e.notify_repeat(3));
  EXPECT_EQ(k.stats().notifications, 4u);
}

TEST(BRepeat, UnboundSocketAndDefaultTargetRefuse) {
  tlm::InitiatorSocket unbound("unbound");
  EXPECT_FALSE(unbound.b_repeat(payload(Command::kRead, 0), 0));

  sim::Kernel k;
  hw::Memory ram("ram", 64, Time::ns(10));
  tlm::InitiatorSocket to_ram("to_ram");
  to_ram.bind(ram.socket());
  EXPECT_FALSE(to_ram.b_repeat(payload(Command::kRead, 0), 0));
}

TEST(BRepeat, RouterCountsForwardedAndDefersToTheTarget) {
  sim::Kernel k;
  ecu::EcuPlatform ecu(k, "ecu");
  tlm::InitiatorSocket init("init");
  init.bind(ecu.bus().target_socket());

  const auto kick = payload(Command::kWrite, EcuMemoryMap::kWatchdogBase + hw::Watchdog::kKick);
  const auto period =
      payload(Command::kRead, EcuMemoryMap::kWatchdogBase + hw::Watchdog::kPeriodUs);
  EXPECT_TRUE(init.b_repeat(period, 0));
  EXPECT_TRUE(init.b_repeat(period, 7));
  EXPECT_EQ(ecu.bus().forwarded(), 7u);

  // A kick repeats only behind a kick whose notification is still pending.
  EXPECT_FALSE(init.b_repeat(kick, 0));
  GenericPayload first = kick;
  Time delay = Time::zero();
  init.b_transport(first, delay);
  ASSERT_TRUE(first.ok());
  const std::uint64_t notifications = k.stats().notifications;
  EXPECT_TRUE(init.b_repeat(kick, 0));
  EXPECT_TRUE(init.b_repeat(kick, 9));
  EXPECT_EQ(k.stats().notifications, notifications + 9);
  EXPECT_EQ(ecu.bus().forwarded(), 7u + 1u + 9u);

  // Refusals count nothing: RAM, ADC, writes other than a kick, decode
  // errors, misaligned and wrong-size accesses.
  const std::uint64_t before = ecu.bus().forwarded();
  EXPECT_FALSE(init.b_repeat(payload(Command::kRead, EcuMemoryMap::kRamBase + 0x100), 4));
  EXPECT_FALSE(init.b_repeat(payload(Command::kRead, EcuMemoryMap::kAdcBase + hw::Adc::kData), 4));
  EXPECT_FALSE(init.b_repeat(payload(Command::kWrite, EcuMemoryMap::kGpioBase + hw::Gpio::kOut), 4));
  EXPECT_FALSE(
      init.b_repeat(payload(Command::kWrite, EcuMemoryMap::kTimerBase + hw::Timer::kCtrl), 4));
  EXPECT_FALSE(init.b_repeat(
      payload(Command::kWrite, EcuMemoryMap::kWatchdogBase + hw::Watchdog::kCtrl), 4));
  EXPECT_FALSE(init.b_repeat(
      payload(Command::kWrite, EcuMemoryMap::kIntcBase + hw::InterruptController::kEnable), 4));
  EXPECT_FALSE(init.b_repeat(payload(Command::kRead, 0x7000'0000), 4));
  EXPECT_FALSE(init.b_repeat(payload(Command::kRead, EcuMemoryMap::kIntcBase + 2), 4));
  EXPECT_FALSE(
      init.b_repeat(GenericPayload(Command::kRead, EcuMemoryMap::kIntcBase, 2), 4));
  EXPECT_EQ(ecu.bus().forwarded(), before);

  // Pure register reads accept.
  EXPECT_TRUE(init.b_repeat(payload(Command::kRead, EcuMemoryMap::kIntcBase), 1));
  EXPECT_TRUE(init.b_repeat(payload(Command::kRead, EcuMemoryMap::kTimerBase), 1));
  EXPECT_TRUE(init.b_repeat(payload(Command::kRead, EcuMemoryMap::kGpioBase + hw::Gpio::kIn), 1));
  EXPECT_EQ(ecu.bus().forwarded(), before + 3);
}

TEST(BRepeat, RouterRefusesWithAProbeOrProvenanceAttached) {
  sim::Kernel k;
  ecu::EcuPlatform ecu(k, "ecu");
  tlm::InitiatorSocket init("init");
  init.bind(ecu.bus().target_socket());
  const auto read = payload(Command::kRead, EcuMemoryMap::kTimerBase);

  obs::TransactionProbe probe(k, "tlm");
  ecu.bus().set_probe(&probe);
  EXPECT_FALSE(init.b_repeat(read, 0));
  ecu.bus().set_probe(nullptr);

  obs::ProvenanceTracker tracker(k);
  ecu.bus().set_provenance(&tracker);
  EXPECT_FALSE(init.b_repeat(read, 0));
  ecu.bus().set_provenance(nullptr);

  EXPECT_TRUE(init.b_repeat(read, 0));
  EXPECT_EQ(ecu.bus().forwarded(), 0u);
}

TEST(BRepeat, CanControllerReadsRepeatAndWritesDoNot) {
  sim::Kernel k;
  can::CanBus bus(k, "can0", 500000);
  ecu::EcuPlatform ecu(k, "ecu");
  ecu.attach_can(bus);
  tlm::InitiatorSocket init("init");
  init.bind(ecu.bus().target_socket());
  const std::uint64_t base = EcuMemoryMap::kCanBase;
  EXPECT_TRUE(init.b_repeat(payload(Command::kRead, base + ecu::CanController::kRxCount), 3));
  EXPECT_TRUE(init.b_repeat(payload(Command::kRead, base + ecu::CanController::kStatus), 3));
  EXPECT_FALSE(init.b_repeat(payload(Command::kWrite, base + ecu::CanController::kRxPop), 3));
  EXPECT_FALSE(init.b_repeat(payload(Command::kWrite, base + ecu::CanController::kTxSend), 3));
  EXPECT_EQ(ecu.bus().forwarded(), 6u);
}

// --- the core ----------------------------------------------------------------

const char* const kKickAndPoll = R"(
      li   r2, 0x40002000    ; watchdog
      addi r3, r0, 2000
      sw   r3, 4(r2)
      addi r3, r0, 1
      sw   r3, 0(r2)
    loop:
      sw   r0, 8(r2)         ; kick
      lw   r5, 12(r2)        ; TIMEOUT_COUNT
      beq  r5, r0, loop
      halt
)";

/// Every counter and state bit the two execution paths must agree on.
std::string core_state(ecu::EcuPlatform& platform, const sim::Kernel& k) {
  hw::Cpu& cpu = platform.cpu();
  const hw::Cpu::Stats& s = cpu.stats();
  const sim::KernelStats& ks = k.stats();
  std::string out;
  auto put = [&out](const char* name, std::uint64_t v) {
    out += name;
    out += '=';
    out += std::to_string(v);
    out += ' ';
  };
  put("now", k.now().picoseconds());
  put("instr", s.instructions);
  put("loads", s.loads);
  put("stores", s.stores);
  put("taken", s.branches_taken);
  put("irqs", s.irqs_taken);
  put("dmi", s.dmi_accesses);
  put("bus", s.bus_accesses);
  put("local", cpu.quantum_keeper().local_time().picoseconds());
  put("syncs", cpu.quantum_keeper().sync_count());
  put("pc", cpu.pc());
  for (int r = 1; r < hw::kRegisterCount; ++r) put("r", cpu.reg(r));
  put("state", static_cast<std::uint64_t>(cpu.state()));
  put("cause", static_cast<std::uint64_t>(cpu.fault_cause()));
  put("forwarded", platform.bus().forwarded());
  put("decode_errors", platform.bus().decode_errors());
  put("activations", ks.activations);
  put("deltas", ks.delta_cycles);
  put("timed", ks.timed_steps);
  put("notifications", ks.notifications);
  put("updates", ks.updates);
  put("resets", platform.reset_count());
  put("wdg_timeouts", platform.watchdog().timeout_count());
  put("timer_expiries", platform.timer().expiry_count());
  put("adc", platform.adc().conversions());
  return out;
}

TEST(FastForward, KickAndPollLoopSkipsIterationsAndKeepsEveryCounter) {
  std::string state[2];
  std::uint64_t skipped[2] = {0, 0};
  for (const bool traced : {false, true}) {
    sim::Kernel k;
    ecu::EcuPlatform ecu(k, "ecu");
    ecu.load_program(kKickAndPoll);
    if (traced) ecu.cpu().set_trace_hook([](std::uint32_t, const hw::Decoded&) {});
    k.run(Time::ms(3));
    state[traced] = core_state(ecu, k);
    skipped[traced] = ecu.cpu().fast_forwarded_iterations();
  }
  EXPECT_EQ(state[0], state[1]);
  EXPECT_EQ(skipped[1], 0u);
  // About 72 iterations per 10 us quantum; all but a handful are skipped.
  EXPECT_GT(skipped[0], 250u * 60u);
}

TEST(FastForward, StaysOffWithoutDmiOrWithAZeroQuantum) {
  for (const int variant : {0, 1}) {
    sim::Kernel k;
    ecu::EcuPlatform::Config cfg;
    if (variant == 0) cfg.cpu.use_dmi = false;
    if (variant == 1) cfg.cpu.quantum = Time::zero();
    ecu::EcuPlatform ecu(k, "ecu", cfg);
    ecu.load_program(kKickAndPoll);
    k.run(Time::us(200));
    EXPECT_GT(ecu.cpu().stats().instructions, 1000u);
    EXPECT_EQ(ecu.cpu().fast_forwarded_iterations(), 0u) << "variant " << variant;
  }
}

// --- oracle 1: the CAPS airbag ECU under seeded fault schedules --------------

/// Accelerometer node of the CAPS twin: protected samples every millisecond.
class Accelerometer final : public can::CanNode {
 public:
  Accelerometer(sim::Kernel& k, can::CanBus& bus, fault::AnalogChannel& channel)
      : bus_(bus), channel_(channel) {
    bus.attach(*this);
    k.spawn("accel", loop());
  }
  void on_frame(const can::CanFrame&) override {}

 private:
  sim::Coro loop() {
    for (;;) {
      co_await sim::delay(Time::ms(1));
      const auto value =
          static_cast<std::uint8_t>(std::clamp(channel_.read() * 6.5, 0.0, 255.0));
      ++counter_;
      const std::uint8_t bytes[3] = {value, static_cast<std::uint8_t>(~value), counter_};
      bus_.submit(*this, can::CanFrame::make(0x050, bytes));
    }
  }

  can::CanBus& bus_;
  fault::AnalogChannel& channel_;
  std::uint8_t counter_ = 0;
};

struct CapsTwin {
  sim::Kernel kernel;
  can::CanBus bus{kernel, "can0", 500000};
  ecu::EcuPlatform airbag{kernel, "airbag", config()};
  support::Xorshift noise;
  fault::AnalogChannel accel;
  Accelerometer sensor;
  fault::InjectorHub hub{airbag};
  std::vector<std::pair<Time, std::uint32_t>> commits;

  CapsTwin(bool protected_link, std::uint64_t seed)
      : noise(seed),
        accel([this] {
          const Time t = kernel.now();
          if (t >= Time::ms(8) && t < Time::ms(12)) return 35.0;
          return 1.0 + noise.uniform(0.0, 1.0);
        }),
        sensor(kernel, bus, accel) {
    airbag.attach_can(bus);
    airbag.load_program(apps::caps_firmware(protected_link));
    airbag.gpio().out().add_commit_hook(
        [this](const std::uint32_t& v) { commits.emplace_back(kernel.now(), v); });
    hub.bind_can(bus);
    hub.bind_sensor(accel);
  }

  static ecu::EcuPlatform::Config config() {
    ecu::EcuPlatform::Config c;
    c.cpu.quantum = Time::us(10);
    return c;
  }

  /// The CAPS verdict fields, computed as CapsScenario computes them.
  fault::Observation observe(const sim::RunStatus& status) {
    fault::Observation obs;
    obs.completed = !status.budget_exhausted();
    const Time deploy = commits.empty() ? Time::max() : commits.front().first;
    obs.hazard = deploy == Time::max() || deploy > Time::ms(14);
    support::Crc32 sig;
    for (const auto& [t, v] : commits) {
      sig.update_u64(t.picoseconds());
      sig.update_u64(v);
    }
    obs.output_signature = sig.value();
    obs.detected = airbag.ram().peek32(0x2000) + airbag.ram().peek32(0x2004) +
                   airbag.reset_count() +
                   (airbag.cpu().state() == hw::Cpu::State::kFaulted ? 1 : 0);
    obs.corrected = bus.stats().retransmissions;
    obs.resets = airbag.reset_count();
    return obs;
  }
};

std::string observation_text(const fault::Observation& o) {
  return "sig=" + std::to_string(o.output_signature) + " completed=" +
         std::to_string(o.completed) + " hazard=" + std::to_string(o.hazard) +
         " detected=" + std::to_string(o.detected) + " corrected=" +
         std::to_string(o.corrected) + " resets=" + std::to_string(o.resets);
}

/// A seeded schedule of one to three faults over the CAPS fault space, plus,
/// every fourth schedule, a flip that turns the firmware's watchdog kick
/// (offset 8) into a write to the read-only TIMEOUT_COUNT (offset 12), so
/// the watchdog times out and resets the core over and over.
std::vector<FaultDescriptor> caps_schedule(std::uint64_t seed, std::uint32_t kick_address) {
  support::Xorshift rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const FaultType types[] = {FaultType::kRegisterBitFlip, FaultType::kPcCorruption,
                             FaultType::kMemoryBitFlip,   FaultType::kCanFrameCorruption,
                             FaultType::kSensorStuck,     FaultType::kSupplyBrownout};
  std::vector<FaultDescriptor> faults;
  const std::size_t count = 1 + rng.index(3);
  for (std::size_t i = 0; i < count; ++i) {
    FaultDescriptor f;
    f.id = i;
    f.type = types[rng.index(std::size(types))];
    f.inject_at = Time::ps(1 + rng.uniform_u64(Time::us(100).picoseconds(),
                                               Time::ms(19).picoseconds()));
    f.address = f.type == FaultType::kMemoryBitFlip ? rng.index(0x200) : rng.index(64);
    f.bit = static_cast<int>(rng.index(32));
    if (rng.chance(0.5)) {
      f.persistence = fault::Persistence::kIntermittent;
      f.duration = Time::us(rng.uniform_u64(50, 3000));
      f.magnitude = rng.uniform(0.2, 1.0);
    }
    if (f.type == FaultType::kSensorStuck) f.magnitude = rng.uniform(0.0, 40.0);
    faults.push_back(f);
  }
  if (seed % 4 == 0) {
    FaultDescriptor f;
    f.id = count;
    f.type = FaultType::kMemoryBitFlip;
    f.inject_at = Time::us(rng.uniform_u64(200, 15000));
    f.address = kick_address;  // low byte of "sw r0, 8(r2)": imm 8 -> 12
    f.bit = 2;
    faults.push_back(f);
  }
  return faults;
}

struct Totals {
  std::uint64_t skipped = 0;
  std::uint64_t resets = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t faulted = 0;
  std::uint64_t deployed = 0;
};

std::string run_caps(bool protected_link, std::uint64_t seed, bool traced, Totals& totals) {
  CapsTwin twin(protected_link, seed);
  if (traced) twin.airbag.cpu().set_trace_hook([](std::uint32_t, const hw::Decoded&) {});
  const std::uint32_t kick = apps::caps_firmware(protected_link).label("loop");
  for (const FaultDescriptor& f : caps_schedule(seed, kick)) twin.hub.schedule(f);

  // Stop at seeded instants too: each stop is a kernel boundary the core
  // must reach with identical counters on both paths.
  support::Xorshift cuts(seed ^ 0xC0FFEE);
  std::string out;
  sim::RunStatus status{};
  const sim::RunBudget budget{.max_deltas_without_advance = std::uint64_t{1} << 20};
  for (int i = 1; i <= 3; ++i) {
    const Time until = Time::ps(cuts.uniform_u64(Time::ms(5 * i).picoseconds(),
                                                 Time::ms(5 * i + 4).picoseconds()));
    status = twin.kernel.run(until, budget);
    out += core_state(twin.airbag, twin.kernel) + "\n";
  }
  status = twin.kernel.run(Time::ms(20), budget);
  out += core_state(twin.airbag, twin.kernel) + "\n";
  for (const auto& [t, v] : twin.commits) {
    out += "gpio " + std::to_string(t.picoseconds()) + " " + std::to_string(v) + "\n";
  }
  out += observation_text(twin.observe(status)) + "\n";

  if (!traced) {
    totals.skipped += twin.airbag.cpu().fast_forwarded_iterations();
    totals.resets += twin.airbag.reset_count();
    totals.timeouts += twin.airbag.watchdog().timeout_count();
    totals.faulted += twin.airbag.cpu().state() == hw::Cpu::State::kFaulted ? 1 : 0;
    totals.deployed += twin.commits.empty() ? 0 : 1;
  }
  return out;
}

TEST(FastForwardOracle, CapsFaultSchedulesMatchThePerInstructionPath) {
  Totals totals;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const bool protected_link = seed % 2 == 0;
    SCOPED_TRACE("seed " + std::to_string(seed));
    Totals unused;
    const std::string fast = run_caps(protected_link, seed, /*traced=*/false, totals);
    const std::string slow = run_caps(protected_link, seed, /*traced=*/true, unused);
    ASSERT_EQ(fast, slow);
  }
  // The schedules reached the paths they are meant to cover.
  EXPECT_GT(totals.skipped, 1'000'000u);
  EXPECT_GT(totals.timeouts, 0u);
  EXPECT_GT(totals.resets, totals.timeouts);  // brownouts reset too
  EXPECT_GT(totals.faulted, 0u);
  EXPECT_GT(totals.deployed, 0u);
}

// --- oracle 2: interrupts, pure and impure polls, odd quanta -----------------

const char* const kMixedFirmware = R"(
      j main
    .org 0x10                ; timer ISR: count at 0x3000, acknowledge
      li   r14, 0x40001000
      addi r15, r0, 1
      sw   r15, 8(r14)       ; clear STATUS
      li   r14, 0x40000000
      sw   r0, 12(r14)       ; complete line 0
      lw   r15, 0x3000(r0)
      addi r15, r15, 1
      sw   r15, 0x3000(r0)
      reti
    main:
      li   r1, 0x40002000    ; watchdog, 500 us
      addi r3, r0, 500
      sw   r3, 4(r1)
      addi r3, r0, 1
      sw   r3, 0(r1)
      li   r2, 0x40001000    ; timer, periodic 50 us
      addi r3, r0, 50
      sw   r3, 4(r2)
      addi r3, r0, 3
      sw   r3, 0(r2)
      li   r4, 0x40000000    ; intc: enable line 0
      addi r3, r0, 1
      sw   r3, 4(r4)
      li   r5, 0x40003000    ; gpio
      li   r6, 0x40004000    ; adc
      ei
    wait_timer:              ; pure: kick + poll EXPIRY_COUNT
      sw   r0, 8(r1)
      lw   r7, 12(r2)
      slti r8, r7, 5
      bne  r8, r0, wait_timer
    wait_gpio:               ; pure: kick + poll GPIO IN
      sw   r0, 8(r1)
      lw   r7, 4(r5)
      beq  r7, r0, wait_gpio
    adc_loop:                ; impure: every read is a conversion
      sw   r0, 8(r1)
      lw   r7, 0(r6)
      lw   r8, 0x3000(r0)
      slti r8, r8, 20
      bne  r8, r0, adc_loop
    dmi_loop:                ; impure: a RAM store per iteration
      sw   r0, 8(r1)
      sw   r7, 0x3004(r0)
      lw   r8, 0x3000(r0)
      slti r8, r8, 40
      bne  r8, r0, dmi_loop
      addi r9, r0, 3000
    delay_loop:              ; no accesses, but a register counts down
      addi r9, r9, -1
      bne  r9, r0, delay_loop
    ram_count:               ; registers end each iteration unchanged,
      sw   r0, 8(r1)         ; but a RAM word counts up
      lw   r9, 0x3008(r0)
      addi r9, r9, 1
      sw   r9, 0x3008(r0)
      slti r8, r9, 2000
      addi r9, r0, 0
      bne  r8, r0, ram_count
    spin:                    ; unconditional backward jump, IRQs still on
      sw   r0, 8(r1)
      j    spin
)";

std::string run_mixed(std::uint64_t seed, bool traced, std::uint64_t& skipped) {
  support::Xorshift rng(seed * 0xD1B54A32D192ED03ULL + 7);
  const Time quanta[] = {Time::us(10), Time::ns(7313), Time::us(1), Time::ps(123457),
                         Time::us(100)};
  ecu::EcuPlatform::Config cfg;
  cfg.cpu.quantum = quanta[rng.index(std::size(quanta))];
  sim::Kernel k;
  ecu::EcuPlatform ecu(k, "ecu", cfg);
  ecu.load_program(kMixedFirmware);
  ecu.adc().set_source([&k] { return 1.0 + static_cast<double>(k.now().picoseconds() % 997) * 1e-3; });
  if (traced) ecu.cpu().set_trace_hook([](std::uint32_t, const hw::Decoded&) {});
  const Time gpio_at = Time::ns(rng.uniform_u64(300'000, 900'000));
  k.spawn("stimulus", [](hw::Gpio& gpio, Time at) -> sim::Coro {
    co_await sim::delay(at);
    gpio.in().write(1);
  }(ecu.gpio(), gpio_at));
  fault::InjectorHub hub(ecu);
  if (seed % 3 != 0) {
    FaultDescriptor f;
    f.type = rng.chance(0.5) ? FaultType::kRegisterBitFlip : FaultType::kPcCorruption;
    f.inject_at = Time::ps(rng.uniform_u64(1, Time::ms(3).picoseconds()));
    f.address = rng.index(16);
    f.bit = static_cast<int>(rng.index(32));
    hub.schedule(f);
  }

  std::string out;
  for (int i = 1; i <= 4; ++i) {
    k.run(Time::ps(rng.uniform_u64(Time::us(800 * (i - 1)).picoseconds(),
                                   Time::us(800 * i).picoseconds())));
    out += core_state(ecu, k) + "\n";
  }
  k.run(Time::ms(4));
  out += core_state(ecu, k) + "\n";
  out += "isr_count=" + std::to_string(ecu.ram().peek32(0x3000)) +
         " ram_count=" + std::to_string(ecu.ram().peek32(0x3008)) + "\n";
  skipped += ecu.cpu().fast_forwarded_iterations();
  return out;
}

TEST(FastForwardOracle, InterruptsImpurePollsAndOddQuantaMatchThePerInstructionPath) {
  std::uint64_t skipped = 0;
  std::uint64_t unused = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string fast = run_mixed(seed, /*traced=*/false, skipped);
    const std::string slow = run_mixed(seed, /*traced=*/true, unused);
    ASSERT_EQ(fast, slow);
  }
  EXPECT_EQ(unused, 0u);
  EXPECT_GT(skipped, 0u);
}

// --- the cached CAPS firmware --------------------------------------------------

TEST(CapsFirmware, CachedImageIsByteIdenticalToAFreshAssembly) {
  for (const bool protected_link : {true, false}) {
    const hw::Program fresh = hw::assemble(apps::caps_firmware_source(protected_link));
    const hw::Program& cached = apps::caps_firmware(protected_link);
    EXPECT_EQ(cached.origin, fresh.origin);
    EXPECT_EQ(cached.image, fresh.image);
    EXPECT_EQ(cached.labels, fresh.labels);
    EXPECT_EQ(&cached, &apps::caps_firmware(protected_link));  // assembled once
  }
  EXPECT_NE(apps::caps_firmware(true).image, apps::caps_firmware(false).image);
}

}  // namespace
