#include "probes.hpp"

#include <string>
#include <vector>

#include "stats.hpp"
#include "vps/ecu/os.hpp"
#include "vps/ecu/platform.hpp"
#include "vps/sim/kernel.hpp"

namespace perfbench {

namespace sim = vps::sim;

namespace {

constexpr int kRepeats = 3;

struct Sample {
  double seconds = 0.0;
  double work = 0.0;   ///< the counted unit (events, activations, instructions)
  double extra = 0.0;  ///< probe-specific second count
  bool ok = false;
};

sim::Coro sleeper(int waits) {
  for (int i = 0; i < waits; ++i) co_await sim::delay(sim::Time::ns(10));
}

sim::Coro pinger(sim::Event& ping, sim::Event& pong, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    pong.notify();
    co_await ping;
  }
}

sim::Coro ponger(sim::Event& ping, sim::Event& pong, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await pong;
    ping.notify();
  }
}

/// sim: timed waits of 8 processes plus an event ping-pong.
Sample kernel_once() {
  constexpr int kProcesses = 8;
  constexpr int kWaits = 100'000;
  constexpr int kRounds = 200'000;
  sim::Kernel kernel;
  sim::Event ping(kernel, "ping");
  sim::Event pong(kernel, "pong");
  for (int p = 0; p < kProcesses; ++p) kernel.spawn("sleeper" + std::to_string(p), sleeper(kWaits));
  kernel.spawn("pinger", pinger(ping, pong, kRounds));
  kernel.spawn("ponger", ponger(ping, pong, kRounds));
  const std::int64_t t0 = now_ns();
  kernel.run();
  const std::int64_t t1 = now_ns();
  const auto events = static_cast<double>(kernel.stats().activations);
  const bool ok = kernel.now() == sim::Time::ns(10) * kWaits &&
                  events >= static_cast<double>(kProcesses * kWaits + 2 * kRounds);
  return {ns_to_s(t1 - t0), events, 0.0, ok};
}

/// ecu: four periodic tasks on one OsScheduler for 200 simulated seconds.
Sample os_once() {
  struct Task {
    std::uint64_t period_us;
    std::uint64_t wcet_us;
  };
  constexpr Task kTasks[] = {{1'000, 100}, {2'000, 200}, {5'000, 500}, {10'000, 1'000}};
  constexpr std::uint64_t kSimSeconds = 200;
  sim::Kernel kernel;
  vps::ecu::OsScheduler os(kernel, "os");
  int priority = 4;
  for (const Task& t : kTasks) {
    vps::ecu::TaskConfig task;
    task.name = "t" + std::to_string(t.period_us);
    task.period = sim::Time::us(t.period_us);
    task.wcet = sim::Time::us(t.wcet_us);
    task.priority = priority--;
    os.add_task(std::move(task));
  }
  const std::int64_t t0 = now_ns();
  kernel.run(sim::Time::sec(kSimSeconds));
  const std::int64_t t1 = now_ns();
  double activations = 0.0;
  bool ok = os.total_deadline_misses() == 0;
  for (std::size_t i = 0; i < os.task_count(); ++i) {
    const double got = static_cast<double>(os.stats(i).activations);
    const double want = static_cast<double>(kSimSeconds * 1'000'000 / kTasks[i].period_us);
    ok = ok && got >= want - 1 && got <= want + 1;
    activations += got;
  }
  return {ns_to_s(t1 - t0), activations, 0.0, ok};
}

/// hw/tlm: load, store and peripheral-poll firmware on one EcuPlatform.
/// `extra` is the router's forwarded transactions; the DMI-on run reports
/// the bus share of the core's memory accesses (fetches included) through
/// `bus_frac`.
Sample iss_once(bool use_dmi, double* bus_frac) {
  constexpr std::uint32_t kIterations = 150'000;
  constexpr std::uint32_t kCell = 3;
  sim::Kernel kernel;
  vps::ecu::EcuPlatform::Config cfg;
  cfg.cpu.use_dmi = use_dmi;
  cfg.cpu.quantum = sim::Time::us(100);
  vps::ecu::EcuPlatform ecu(kernel, "ecu", cfg);
  ecu.load_program(R"(
      li   r1, 0x8000           ; data cell (RAM)
      li   r2, 0x40001000       ; timer block (peripheral, bus only)
      li   r8, )" + std::to_string(kIterations) + R"(
      li   r5, 0
    loop:
      lw   r3, 0(r1)
      add  r5, r5, r3
      sw   r5, 4(r1)
      lw   r4, 12(r2)           ; poll the expiry counter
      addi r8, r8, -1
      bne  r8, r0, loop
      halt
  )");
  ecu.ram().poke32(0x8000, kCell);
  const std::int64_t t0 = now_ns();
  kernel.run(sim::Time::sec(10));
  const std::int64_t t1 = now_ns();
  const auto& stats = ecu.cpu().stats();
  const bool ok = ecu.cpu().state() == vps::hw::Cpu::State::kHalted &&
                  ecu.ram().peek32(0x8004) == kCell * kIterations;
  if (bus_frac != nullptr) {
    const double accesses = static_cast<double>(stats.bus_accesses + stats.dmi_accesses);
    *bus_frac = accesses > 0 ? static_cast<double>(stats.bus_accesses) / accesses : 0.0;
  }
  return {ns_to_s(t1 - t0), static_cast<double>(stats.instructions),
          static_cast<double>(ecu.bus().forwarded()), ok};
}

/// Median rate (work per host second) of kRepeats samples; one span each.
template <typename Fn>
double median_rate(SpanLog* log, std::uint64_t parent, const char* name, bool& ok, Fn&& once,
                   double* extra_rate = nullptr) {
  std::vector<double> rates;
  std::vector<double> extra_rates;
  for (int r = 0; r < kRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    const Sample s = once();
    if (log != nullptr) log->add(name, parent, t0, now_ns());
    ok = ok && s.ok && s.seconds > 0.0;
    rates.push_back(s.work / s.seconds);
    extra_rates.push_back(s.extra / s.seconds);
  }
  if (extra_rate != nullptr) *extra_rate = median(extra_rates);
  return median(rates);
}

}  // namespace

ProbeResults run_probes(SpanLog* log, std::uint64_t parent) {
  ProbeResults r;
  bool ok = true;
  r.kernel_mevents_per_s = median_rate(log, parent, "probe.sim", ok, kernel_once) * 1e-6;
  r.os_activations_per_s = median_rate(log, parent, "probe.ecu", ok, os_once);
  std::vector<double> fracs;
  r.iss_mips_dmi = median_rate(log, parent, "probe.hw.dmi", ok, [&fracs] {
                     double frac = 0.0;
                     const Sample s = iss_once(true, &frac);
                     fracs.push_back(frac);
                     return s;
                   }) * 1e-6;
  r.bus_access_frac = median(fracs);
  double router_rate = 0.0;
  r.iss_mips_bus = median_rate(
                       log, parent, "probe.hw.bus", ok, [] { return iss_once(false, nullptr); },
                       &router_rate) * 1e-6;
  r.router_mtx_per_s = router_rate * 1e-6;
  r.correct = ok;
  return r;
}

}  // namespace perfbench
