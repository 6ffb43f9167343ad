// Unit tests for the discrete-event kernel: time arithmetic, event
// notification semantics, coroutine thread processes, method processes,
// delta cycles, signals, fifos, and the VCD tracer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "vps/hw/peripherals.hpp"
#include "vps/sim/fifo.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"
#include "vps/sim/signal.hpp"
#include "vps/sim/time.hpp"
#include "vps/sim/trace.hpp"
#include "vps/support/ensure.hpp"
#include "vps/tlm/payload.hpp"
#include "vps/tlm/sockets.hpp"

namespace {

using namespace vps::sim;

TEST(Time, ArithmeticAndLiterals) {
  EXPECT_EQ((3_ns).picoseconds(), 3000u);
  EXPECT_EQ(1_us, 1000_ns);
  EXPECT_EQ(2_ms + 500_us, 2500_us);
  EXPECT_EQ(1_sec - 1_ms, 999_ms);
  EXPECT_EQ((10_ns) * 3, 30_ns);
  EXPECT_EQ((100_ns) / (10_ns), 10u);
  EXPECT_EQ((105_ns) % (10_ns), 5_ns);
  EXPECT_LT(1_ns, 1_us);
}

TEST(Time, FromSecondsRoundTrip) {
  EXPECT_EQ(Time::from_seconds(1.0), 1_sec);
  EXPECT_EQ(Time::from_seconds(0.0), Time::zero());
  EXPECT_EQ(Time::from_seconds(-2.0), Time::zero());
  EXPECT_NEAR(Time::from_seconds(0.0035).to_seconds(), 0.0035, 1e-12);
}

TEST(Time, ToString) {
  EXPECT_EQ((5_ns).to_string(), "5ns");
  EXPECT_EQ((2_ms).to_string(), "2ms");
  EXPECT_EQ(Time::zero().to_string(), "0s");
  EXPECT_EQ((1500_ns).to_string(), "1500ns");
}

TEST(Kernel, EmptyRunTerminates) {
  Kernel k;
  EXPECT_EQ(k.run(), Time::zero());
  EXPECT_FALSE(k.has_pending_activity());
}

TEST(Kernel, ThreadProcessDelays) {
  Kernel k;
  std::vector<std::uint64_t> log;
  k.spawn("p", [](Kernel& k, std::vector<std::uint64_t>& log) -> Coro {
    log.push_back(k.now().picoseconds());
    co_await delay(10_ns);
    log.push_back(k.now().picoseconds());
    co_await delay(5_ns);
    log.push_back(k.now().picoseconds());
  }(k, log));
  k.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 0u);
  EXPECT_EQ(log[1], 10000u);
  EXPECT_EQ(log[2], 15000u);
  EXPECT_EQ(k.now(), 15_ns);
}

TEST(Kernel, RunUntilLimitStopsEarly) {
  Kernel k;
  int wakeups = 0;
  k.spawn("p", [](int& wakeups) -> Coro {
    for (int i = 0; i < 100; ++i) {
      co_await delay(10_ns);
      ++wakeups;
    }
  }(wakeups));
  k.run(35_ns);
  EXPECT_EQ(wakeups, 3);
  EXPECT_EQ(k.now(), 35_ns);
  k.run(1_us);
  EXPECT_EQ(wakeups, 100);
}

TEST(Kernel, EventDeltaNotification) {
  Kernel k;
  Event e(k, "e");
  int fired = 0;
  k.spawn("waiter", [](Event& e, int& fired) -> Coro {
    co_await e;
    ++fired;
  }(e, fired));
  k.spawn("notifier", [](Event& e) -> Coro {
    co_await delay(3_ns);
    e.notify();
  }(e));
  k.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 3_ns);
}

TEST(Kernel, TimedNotificationAndCancel) {
  Kernel k;
  Event e(k, "e");
  int fired = 0;
  k.method("m", [&] { ++fired; }, {&e}, /*initialize=*/false);
  e.notify(10_ns);
  e.notify(20_ns);
  k.spawn("canceller", [](Event& e) -> Coro {
    co_await delay(15_ns);
    e.cancel();  // kills the 20ns notification
  }(e));
  k.run();
  EXPECT_EQ(fired, 1);
}

TEST(Kernel, ImmediateNotificationRunsSameDelta) {
  Kernel k;
  Event e(k, "e");
  std::vector<std::string> order;
  k.method("listener", [&] { order.push_back("listener@" + k.now().to_string()); }, {&e},
           /*initialize=*/false);
  k.spawn("src", [](Event& e, std::vector<std::string>& order) -> Coro {
    order.push_back("pre");
    e.notify_immediate();
    order.push_back("post");
    co_return;
  }(e, order));
  k.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "pre");
  EXPECT_EQ(order[1], "post");       // src finishes its slice first
  EXPECT_EQ(order[2], "listener@0s");  // listener ran in the same evaluation phase
}

TEST(Kernel, MethodStaticSensitivityReruns) {
  Kernel k;
  Event e(k, "tick");
  int runs = 0;
  k.method("m", [&] { ++runs; }, {&e}, /*initialize=*/true);
  k.spawn("ticker", [](Event& e) -> Coro {
    for (int i = 0; i < 5; ++i) {
      co_await delay(1_ns);
      e.notify();
    }
  }(e));
  k.run();
  EXPECT_EQ(runs, 6);  // 1 initialize + 5 notifications
}

TEST(Kernel, WaitWithTimeoutEventWins) {
  Kernel k;
  Event e(k, "e");
  bool got_event = false;
  k.spawn("w", [](Event& e, bool& got) -> Coro { got = co_await wait_with_timeout(e, 100_ns); }(e, got_event));
  k.spawn("n", [](Event& e) -> Coro {
    co_await delay(10_ns);
    e.notify();
  }(e));
  k.run();
  EXPECT_TRUE(got_event);
  EXPECT_EQ(k.now(), 10_ns);
}

TEST(Kernel, WaitWithTimeoutTimeoutWins) {
  Kernel k;
  Event e(k, "e");
  bool got_event = true;
  k.spawn("w", [](Event& e, bool& got) -> Coro { got = co_await wait_with_timeout(e, 100_ns); }(e, got_event));
  k.run();
  EXPECT_FALSE(got_event);
  EXPECT_EQ(k.now(), 100_ns);
}

TEST(Kernel, WaitWithTimeoutLeavesNoStaleWakeup) {
  Kernel k;
  Event e(k, "e");
  std::vector<std::uint64_t> wake_times;
  k.spawn("w", [](Kernel& k, Event& e, std::vector<std::uint64_t>& times) -> Coro {
    (void)co_await wait_with_timeout(e, 100_ns);  // event fires at 10ns
    times.push_back(k.now().picoseconds());
    co_await delay(500_ns);  // the stale 100ns timeout must not shorten this
    times.push_back(k.now().picoseconds());
  }(k, e, wake_times));
  k.spawn("n", [](Event& e) -> Coro {
    co_await delay(10_ns);
    e.notify();
  }(e));
  k.run();
  ASSERT_EQ(wake_times.size(), 2u);
  EXPECT_EQ(wake_times[0], (10_ns).picoseconds());
  EXPECT_EQ(wake_times[1], (510_ns).picoseconds());
}

TEST(Kernel, NestedCoroutinesPropagateContext) {
  Kernel k;
  std::vector<std::uint64_t> log;
  auto inner = [](Kernel& k, std::vector<std::uint64_t>& log) -> Coro {
    co_await delay(7_ns);
    log.push_back(k.now().picoseconds());
  };
  k.spawn("outer", [](Kernel& k, std::vector<std::uint64_t>& log, auto inner) -> Coro {
    co_await inner(k, log);
    co_await inner(k, log);
    log.push_back(k.now().picoseconds());
  }(k, log, inner));
  k.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 7000u);
  EXPECT_EQ(log[1], 14000u);
  EXPECT_EQ(log[2], 14000u);
}

TEST(Kernel, ExceptionInProcessPropagatesToRun) {
  Kernel k;
  k.spawn("bad", []() -> Coro {
    co_await delay(1_ns);
    throw std::runtime_error("model exploded");
  }());
  EXPECT_THROW(k.run(), std::runtime_error);
}

TEST(Kernel, ExceptionInNestedCoroPropagates) {
  Kernel k;
  auto inner = []() -> Coro {
    co_await delay(1_ns);
    throw std::runtime_error("inner bad");
  };
  bool caught_in_outer = false;
  k.spawn("outer", [](auto inner, bool& caught) -> Coro {
    try {
      co_await inner();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(inner, caught_in_outer));
  k.run();
  EXPECT_TRUE(caught_in_outer);
}

TEST(Kernel, TerminatedEventAllowsJoin) {
  Kernel k;
  auto& worker = k.spawn("worker", []() -> Coro { co_await delay(42_ns); }());
  bool joined = false;
  k.spawn("parent", [](Kernel& k, Process& w, bool& joined) -> Coro {
    co_await w.terminated_event();
    joined = w.done() && k.now() == 42_ns;
  }(k, worker, joined));
  k.run();
  EXPECT_TRUE(joined);
}

TEST(Kernel, KillPreventsFurtherActivations) {
  Kernel k;
  int wakeups = 0;
  auto& victim = k.spawn("victim", [](int& wakeups) -> Coro {
    for (;;) {
      co_await delay(10_ns);
      ++wakeups;
    }
  }(wakeups));
  k.spawn("killer", [](Process& v) -> Coro {
    co_await delay(35_ns);
    v.kill();
  }(victim));
  k.run(1_us);
  EXPECT_EQ(wakeups, 3);
  EXPECT_TRUE(victim.done());
}

TEST(Kernel, StopEndsRun) {
  Kernel k;
  int wakeups = 0;
  k.spawn("p", [](Kernel& k, int& wakeups) -> Coro {
    for (;;) {
      co_await delay(10_ns);
      if (++wakeups == 3) k.stop();
    }
  }(k, wakeups));
  k.run();
  EXPECT_EQ(wakeups, 3);
  EXPECT_EQ(k.now(), 30_ns);
}

TEST(Kernel, StatsCountActivity) {
  Kernel k;
  Event e(k, "e");
  k.spawn("p", [](Event& e) -> Coro {
    for (int i = 0; i < 10; ++i) {
      co_await delay(1_ns);
      e.notify();
    }
  }(e));
  k.run();
  EXPECT_GE(k.stats().activations, 10u);
  EXPECT_GE(k.stats().notifications, 10u);
  EXPECT_GE(k.stats().timed_steps, 10u);
}

TEST(Kernel, DeterministicSameTimeOrdering) {
  // Two processes scheduled for the same instant run in registration order.
  for (int rep = 0; rep < 3; ++rep) {
    Kernel k;
    std::vector<int> order;
    k.spawn("a", [](std::vector<int>& order) -> Coro {
      co_await delay(5_ns);
      order.push_back(1);
    }(order));
    k.spawn("b", [](std::vector<int>& order) -> Coro {
      co_await delay(5_ns);
      order.push_back(2);
    }(order));
    k.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
  }
}

TEST(Kernel, PendingActivityAndNextTime) {
  Kernel k;
  Event e(k, "e");
  EXPECT_FALSE(k.has_pending_activity());
  EXPECT_EQ(k.next_activity_time(), Time::max());
  e.notify(25_ns);
  EXPECT_TRUE(k.has_pending_activity());
  EXPECT_EQ(k.next_activity_time(), 25_ns);
  k.run();
  EXPECT_EQ(e.fire_count(), 1u);
  // A runnable process makes "now" the next activity time.
  k.spawn("p", []() -> Coro { co_return; }());
  EXPECT_EQ(k.next_activity_time(), k.now());
  k.run();
  EXPECT_FALSE(k.has_pending_activity());
}

TEST(Kernel, EventFireCountAccumulates) {
  Kernel k;
  Event e(k, "e");
  k.spawn("n", [](Event& e) -> Coro {
    for (int i = 0; i < 4; ++i) {
      e.notify();
      co_await delay(1_ns);
    }
    e.notify_immediate();
  }(e));
  k.run();
  EXPECT_EQ(e.fire_count(), 5u);
}

TEST(Signal, DeltaCycleSemantics) {
  Kernel k;
  Signal<int> s(k, "s", 0);
  int observed_during_write_delta = -1;
  k.spawn("writer", [](Signal<int>& s, int& obs) -> Coro {
    s.write(5);
    obs = s.read();  // still old value within the same evaluation
    co_return;
  }(s, observed_during_write_delta));
  k.run();
  EXPECT_EQ(observed_during_write_delta, 0);
  EXPECT_EQ(s.read(), 5);
}

TEST(Signal, ChangedEventFiresOnlyOnChange) {
  Kernel k;
  Signal<int> s(k, "s", 0);
  int changes = 0;
  k.method("watcher", [&] { ++changes; }, {&s.changed()}, /*initialize=*/false);
  k.spawn("writer", [](Signal<int>& s) -> Coro {
    s.write(0);  // no change
    co_await delay(1_ns);
    s.write(7);  // change
    co_await delay(1_ns);
    s.write(7);  // no change
    co_await delay(1_ns);
    s.write(8);  // change
  }(s));
  k.run();
  EXPECT_EQ(changes, 2);
  EXPECT_EQ(s.change_count(), 2u);
}

TEST(Signal, LastWriteInDeltaWins) {
  Kernel k;
  Signal<int> s(k, "s", 0);
  k.spawn("w", [](Signal<int>& s) -> Coro {
    s.write(1);
    s.write(2);
    s.write(3);
    co_return;
  }(s));
  k.run();
  EXPECT_EQ(s.read(), 3);
  EXPECT_EQ(s.change_count(), 1u);
}

TEST(Signal, ForceBypassesDeltaProtocol) {
  Kernel k;
  Signal<int> s(k, "s", 0);
  int seen = -1;
  k.spawn("f", [](Signal<int>& s, int& seen) -> Coro {
    s.force(9);
    seen = s.read();  // visible immediately
    co_return;
  }(s, seen));
  k.run();
  EXPECT_EQ(seen, 9);
}

TEST(Fifo, NonBlockingOps) {
  Kernel k;
  Fifo<int> f(k, "f", 2);
  EXPECT_TRUE(f.nb_push(1));
  EXPECT_TRUE(f.nb_push(2));
  EXPECT_FALSE(f.nb_push(3));
  EXPECT_TRUE(f.full());
  EXPECT_EQ(f.nb_pop().value(), 1);
  EXPECT_EQ(f.nb_pop().value(), 2);
  EXPECT_FALSE(f.nb_pop().has_value());
}

TEST(Fifo, BlockingProducerConsumer) {
  Kernel k;
  Fifo<int> f(k, "f", 2);
  std::vector<int> received;
  k.spawn("producer", [](Fifo<int>& f) -> Coro {
    for (int i = 0; i < 10; ++i) co_await f.push(i);
  }(f));
  k.spawn("consumer", [](Fifo<int>& f, std::vector<int>& received) -> Coro {
    for (int i = 0; i < 10; ++i) {
      int v = 0;
      co_await f.pop(v);
      received.push_back(v);
      co_await delay(3_ns);  // slow consumer back-pressures producer
    }
  }(f, received));
  k.run();
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

TEST(Fifo, RejectsZeroCapacity) {
  Kernel k;
  EXPECT_THROW(Fifo<int>(k, "f", 0), vps::support::InvariantError);
}

TEST(Module, HierarchicalNames) {
  Kernel k;
  struct Top : Module {
    using Module::Module;
  };
  Top top(k, "top");
  struct Sub : Module {
    Sub(Module& parent) : Module(parent, "sub") {}
  };
  Sub sub(top);
  EXPECT_EQ(sub.name(), "top.sub");
  EXPECT_EQ(&sub.kernel(), &k);
}

TEST(Vcd, WritesChangesToFile) {
  const std::string path = "/tmp/vps_vcd_test.vcd";
  {
    Kernel k;
    Signal<bool> clk(k, "clk", false);
    Signal<std::uint8_t> bus(k, "bus", 0);
    VcdTracer vcd(k, path);
    vcd.trace(clk);
    vcd.trace(bus);
    k.spawn("driver", [](Signal<bool>& clk, Signal<std::uint8_t>& bus) -> Coro {
      for (std::uint8_t i = 0; i < 4; ++i) {
        clk.write(!clk.read());
        bus.write(i);
        co_await delay(10_ns);
      }
    }(clk, bus));
    k.run();
    EXPECT_GT(vcd.change_records(), 0u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(content.find("clk"), std::string::npos);
  EXPECT_NE(content.find("#10000"), std::string::npos);
  std::remove(path.c_str());
}

// --- regression tests for the PR-2 bugfix anchors ---------------------------

// Time arithmetic saturates instead of wrapping (the old two's-complement
// wrap made `now + Time::max()` a tiny deadline and Time::sec(huge) a
// nonsense small count).
TEST(Time, SaturatingArithmetic) {
  EXPECT_EQ(Time::max() + 1_ns, Time::max());
  EXPECT_EQ(1_ns + Time::max(), Time::max());
  EXPECT_EQ(Time::max() + Time::max(), Time::max());
  EXPECT_EQ(Time::sec(std::numeric_limits<std::uint64_t>::max()), Time::max());
  EXPECT_EQ(Time::max() * 2, Time::max());
  EXPECT_EQ(1_ns - 1_us, Time::zero());  // subtraction clamps at zero
  EXPECT_EQ(Time::zero() - Time::max(), Time::zero());
  // Ordinary arithmetic is unaffected.
  EXPECT_EQ(1_us + 1_ns, Time::ps(1001000));
  EXPECT_EQ(1_us - 1_ns, Time::ps(999000));
  Time t = Time::max();
  t += 5_ms;
  EXPECT_EQ(t, Time::max());
  t -= Time::max();
  EXPECT_EQ(t, Time::zero());
}

// run_for(Time::max()) means "until activity is exhausted". Before the
// saturating fix, now + max wrapped to (now - 1ps) and run() returned
// immediately without executing anything.
TEST(Kernel, RunForTimeMaxDoesNotWrap) {
  Kernel k;
  int steps = 0;
  k.spawn("p", [](int& steps) -> Coro {
    for (int i = 0; i < 3; ++i) {
      co_await delay(10_ns);
      ++steps;
    }
  }(steps));
  k.run_for(Time::max());
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(k.now(), 30_ns);
}

// Commit hooks are multi-subscriber with independent handle-based removal
// (the old single-slot set_commit_hook silently evicted prior observers).
TEST(Signal, MultipleCommitHooksCoexist) {
  Kernel k;
  Signal<int> sig(k, "sig", 0);
  std::vector<int> a, b;
  const CommitHookId ha = sig.add_commit_hook([&a](const int& v) { a.push_back(v); });
  const CommitHookId hb = sig.add_commit_hook([&b](const int& v) { b.push_back(v); });
  EXPECT_NE(ha, hb);
  EXPECT_EQ(sig.commit_hook_count(), 2u);

  k.spawn("w", [](Signal<int>& sig) -> Coro {
    sig.write(1);
    co_await delay(1_ns);
    sig.write(2);
    co_await delay(1_ns);
  }(sig));
  k.run();
  EXPECT_EQ(a, (std::vector<int>{1, 2}));
  EXPECT_EQ(b, (std::vector<int>{1, 2}));

  // Removing one hook must not disturb the other.
  sig.remove_commit_hook(ha);
  EXPECT_EQ(sig.commit_hook_count(), 1u);
  sig.force(7);
  EXPECT_EQ(a, (std::vector<int>{1, 2}));
  EXPECT_EQ(b, (std::vector<int>{1, 2, 7}));
  sig.remove_commit_hook(hb);
  EXPECT_EQ(sig.commit_hook_count(), 0u);
  sig.remove_commit_hook(hb);  // double-remove is a no-op
}

// The concrete instance of the eviction bug: attaching a VCD tracer and a
// user monitor to the same signal; both must see every commit.
TEST(Signal, TracerAndMonitorCoexist) {
  const std::string path = "/tmp/vps_vcd_coexist_test.vcd";
  Kernel k;
  Signal<std::uint8_t> bus(k, "bus", 0);
  std::vector<int> monitored;
  (void)bus.add_commit_hook([&monitored](const std::uint8_t& v) { monitored.push_back(v); });
  VcdTracer vcd(k, path);
  vcd.trace(bus);  // must not evict the monitor
  EXPECT_EQ(bus.commit_hook_count(), 2u);

  k.spawn("w", [](Signal<std::uint8_t>& bus) -> Coro {
    for (std::uint8_t i = 1; i <= 3; ++i) {
      bus.write(i);
      co_await delay(10_ns);
    }
  }(bus));
  k.run();
  EXPECT_EQ(monitored, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(vcd.change_records(), 3u);
  std::remove(path.c_str());
}

// Destroying the tracer before the signals it traces must detach its commit
// hooks: afterwards the hooks that captured the dead tracer are gone and
// further writes are safe (previously a use-after-free under ASan).
TEST(Vcd, TracerDestroyedBeforeSignalsDetachesHooks) {
  const std::string path = "/tmp/vps_vcd_lifetime_test.vcd";
  Kernel k;
  Signal<bool> clk(k, "clk", false);
  Signal<std::uint8_t> bus(k, "bus", 0);
  {
    VcdTracer vcd(k, path);
    vcd.trace(clk);
    vcd.trace(bus);
    EXPECT_EQ(clk.commit_hook_count(), 1u);
    EXPECT_EQ(bus.commit_hook_count(), 1u);
  }  // tracer destroyed here, signals live on
  EXPECT_EQ(clk.commit_hook_count(), 0u);
  EXPECT_EQ(bus.commit_hook_count(), 0u);
  k.spawn("w", [](Signal<bool>& clk, Signal<std::uint8_t>& bus) -> Coro {
    clk.write(true);
    bus.write(42);
    co_await delay(1_ns);
  }(clk, bus));
  k.run();  // would crash (dangling `this` in the hook) without detach
  EXPECT_TRUE(clk.read());
  std::remove(path.c_str());
}

// Byte-exact golden file: the VCD writer's output is fully deterministic
// (sim-time timestamps only), so observability changes that perturb the
// format are caught here rather than in a downstream waveform viewer.
TEST(Vcd, GoldenFileOutput) {
  const std::string path = "/tmp/vps_vcd_golden_test.vcd";
  {
    Kernel k;
    Signal<bool> clk(k, "clk", false);
    Signal<std::uint8_t> bus(k, "bus", 0);
    VcdTracer vcd(k, path);
    vcd.trace(clk);
    vcd.trace(bus);
    k.spawn("driver", [](Signal<bool>& clk, Signal<std::uint8_t>& bus) -> Coro {
      for (std::uint8_t i = 1; i <= 3; ++i) {
        clk.write(!clk.read());
        bus.write(i);
        co_await delay(10_ns);
      }
    }(clk, bus));
    k.run();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  const std::string golden = R"($timescale 1ps $end
$scope module vps $end
$var wire 1 ! clk $end
$var wire 8 " bus $end
$upscope $end
$enddefinitions $end
$dumpvars
0!
b00000000 "
$end
#0
1!
b00000001 "
#10000
0!
b00000010 "
#20000
1!
b00000011 "
)";
  EXPECT_EQ(content, golden);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Watchdog budgets (RunBudget / RunStatus)
// ---------------------------------------------------------------------------

TEST(RunBudget, DeltaLivelockStopsWithLivelockReason) {
  Kernel k;
  Event e(k, "e");
  // Delta livelock: the method re-notifies its own trigger every delta, so
  // time never advances and an unbudgeted run would spin forever.
  k.method("storm", [&] { e.notify(); }, {&e}, /*initialize=*/true);
  const RunStatus status = k.run_until_idle(RunBudget{.max_deltas_without_advance = 100});
  EXPECT_EQ(status.reason, StopReason::kLivelock);
  EXPECT_TRUE(status.budget_exhausted());
  EXPECT_EQ(status.time, Time::zero());  // never left t = 0
  EXPECT_STREQ(to_string(status.reason), "livelock");
}

TEST(RunBudget, ImmediateSelfNotificationStopsOnActivationBudget) {
  Kernel k;
  Event e(k, "e");
  // Immediate self-notification never lets the evaluate phase drain, so no
  // delta boundary is ever reached: only the activation budget can catch it.
  k.method("storm", [&] { e.notify_immediate(); }, {&e}, /*initialize=*/true);
  const RunStatus status = k.run_until_idle(RunBudget{.max_activations = 1000});
  EXPECT_EQ(status.reason, StopReason::kActivationBudget);
  EXPECT_TRUE(status.budget_exhausted());
  EXPECT_GE(k.stats().activations, 1000u);
}

TEST(RunBudget, DeltaCycleBudgetStops) {
  Kernel k;
  Event e(k, "e");
  k.method("storm", [&] { e.notify(); }, {&e}, /*initialize=*/true);
  const RunStatus status = k.run_until_idle(RunBudget{.max_delta_cycles = 50});
  EXPECT_EQ(status.reason, StopReason::kDeltaBudget);
  EXPECT_GE(k.stats().delta_cycles, 50u);
}

TEST(RunBudget, LivelockCounterResetsOnTimeAdvance) {
  Kernel k;
  k.spawn("healthy", []() -> Coro {
    for (int i = 0; i < 50; ++i) co_await delay(1_ns);
  }());
  // A healthy periodic process advances time every delta or two — far below
  // the heuristic threshold, so a tight livelock guard must not fire.
  const RunStatus status = k.run_until_idle(RunBudget{.max_deltas_without_advance = 3});
  EXPECT_EQ(status.reason, StopReason::kIdle);
  EXPECT_FALSE(status.budget_exhausted());
  EXPECT_EQ(k.now(), 50_ns);
}

TEST(RunBudget, DistinguishesIdleFromTimeLimit) {
  Kernel k;
  k.spawn("p", []() -> Coro { co_await delay(10_ns); }());
  Kernel k2;
  k2.spawn("p", []() -> Coro {
    for (;;) co_await delay(10_ns);
  }());
  EXPECT_EQ(k.run_until_idle().reason, StopReason::kIdle);
  EXPECT_EQ(k2.run_for(25_ns, RunBudget{}).reason, StopReason::kTimeLimit);
  EXPECT_EQ(k2.now(), 25_ns);
}

TEST(RunBudget, BudgetsAreRelativeToRunEntryAndResumable) {
  Kernel k;
  int wakeups = 0;
  k.spawn("p", [](int& wakeups) -> Coro {
    for (int i = 0; i < 10; ++i) {
      co_await delay(1_ns);
      ++wakeups;
    }
  }(wakeups));
  const RunStatus first = k.run_until_idle(RunBudget{.max_activations = 3});
  EXPECT_EQ(first.reason, StopReason::kActivationBudget);
  EXPECT_LT(wakeups, 10);
  // A fresh call gets a fresh allowance (limits are relative to run() entry,
  // not lifetime totals), so the same budget eventually finishes the work.
  RunStatus last = first;
  for (int guard = 0; guard < 20 && last.budget_exhausted(); ++guard) {
    last = k.run_until_idle(RunBudget{.max_activations = 3});
  }
  EXPECT_EQ(last.reason, StopReason::kIdle);
  EXPECT_EQ(wakeups, 10);
  EXPECT_EQ(k.now(), 10_ns);
}

TEST(RunBudget, LegacyUnbudgetedRunStillReturnsTime) {
  Kernel k;
  k.spawn("p", []() -> Coro { co_await delay(7_ns); }());
  EXPECT_EQ(k.run(), 7_ns);
}

// ---------------------------------------------------------------------------
// Multiple kernel observers
// ---------------------------------------------------------------------------

struct CountingObserver final : KernelObserver {
  int deltas = 0;
  int trips = 0;
  StopReason last_trip = StopReason::kIdle;
  void on_delta_cycle(Time) override { ++deltas; }
  void on_budget_trip(const RunStatus& status) override {
    ++trips;
    last_trip = status.reason;
  }
};

TEST(KernelObserver, MultipleObserversAllReceiveCallbacks) {
  Kernel k;
  CountingObserver a;
  CountingObserver b;
  k.add_observer(a);
  k.add_observer(b);
  EXPECT_EQ(k.observer_count(), 2u);
  k.spawn("p", []() -> Coro { co_await delay(1_ns); }());
  k.run();
  EXPECT_GT(a.deltas, 0);
  EXPECT_EQ(a.deltas, b.deltas);  // both saw every delta boundary

  k.remove_observer(a);
  EXPECT_FALSE(k.has_observer(a));
  EXPECT_TRUE(k.has_observer(b));
  const int a_before = a.deltas;
  k.spawn("q", []() -> Coro { co_await delay(1_ns); }());
  k.run();
  EXPECT_EQ(a.deltas, a_before);  // detached: no further callbacks
  EXPECT_GT(b.deltas, a.deltas);
}

TEST(KernelObserver, DuplicateAttachIsAnInvariantError) {
  Kernel k;
  CountingObserver a;
  k.add_observer(a);
  EXPECT_THROW(k.add_observer(a), vps::support::InvariantError);
  k.remove_observer(a);
  k.remove_observer(a);  // removing a detached observer is a no-op
  EXPECT_EQ(k.observer_count(), 0u);
}

TEST(KernelObserver, BudgetTripNotifiesEveryObserver) {
  Kernel k;
  Event e(k, "e");
  k.method("storm", [&] { e.notify(); }, {&e}, /*initialize=*/true);
  CountingObserver a;
  CountingObserver b;
  k.add_observer(a);
  k.add_observer(b);
  const RunStatus status = k.run_until_idle(RunBudget{.max_deltas_without_advance = 10});
  EXPECT_EQ(status.reason, StopReason::kLivelock);
  EXPECT_EQ(a.trips, 1);
  EXPECT_EQ(b.trips, 1);
  EXPECT_EQ(a.last_trip, StopReason::kLivelock);
}


// ---------------------------------------------------------------------------
// Seeded kernel oracle: random programs over every wait and notification
// kind, snapshot-forked onto fresh twins at random quiescent points. Each
// program's activation trace and KernelStats must equal
// tests/golden/kernel_oracle.txt, which a kernel that kept every timed
// entry until it came due wrote. Dropping dead entries early must not move
// a single activation.
// ---------------------------------------------------------------------------

/// Everything a program's processes read and write, held outside the
/// coroutines so a twin continues from a copy (see KernelSnapshot).
struct OracleState {
  std::uint64_t rng = 0;
  std::vector<std::uint32_t> steps_left;  // per thread process
  std::uint64_t pinned_seq = 0;           // distinct per pinned delay, so keys stay unique
  std::vector<std::uint64_t> due_ps;      // maturity of every timed notify, cancelled or not
  std::uint64_t trace_hash = 0xcbf29ce484222325ULL;  // FNV-1a over the activation trace
  std::uint64_t trace_len = 0;

  std::uint32_t next(std::uint32_t bound) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<std::uint32_t>(rng % bound);
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      trace_hash = (trace_hash ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001b3ULL;
    }
  }
  void log_activation(Time now, std::size_t ordinal, bool timed_out) {
    mix(now.picoseconds());
    mix(ordinal << 1 | (timed_out ? 1 : 0));
    ++trace_len;
  }
};

struct OracleHook final : UpdateHook {
  void perform_update() override {}
  void discard_update() noexcept override {}
};

/// One elaborated program. Construction order (events, threads, method) is
/// fixed, so a twin built from the same shape accepts the original's image.
struct OracleSystem {
  Kernel k;
  OracleState st;
  OracleHook hook;
  std::vector<std::unique_ptr<Event>> events;
  std::vector<Process*> procs;

  OracleSystem(const OracleState& state, std::size_t n_events, std::size_t n_threads)
      : st(state) {
    for (std::size_t j = 0; j < n_events; ++j) {
      events.push_back(std::make_unique<Event>(k, "e" + std::to_string(j)));
    }
    for (std::size_t i = 0; i < n_threads; ++i) {
      procs.push_back(&k.spawn("t" + std::to_string(i), thread(*this, i)));
    }
    procs.push_back(&k.method("m", [this] { method_body(); }, {events[0].get()}, false));
  }

  Event& pick_event() { return *events[st.next(static_cast<std::uint32_t>(events.size()))]; }

  void notify_timed(Event& e, Time delay) {
    e.notify(delay);
    st.due_ps.push_back((k.now() + delay).picoseconds());
  }

  void method_body() {
    st.log_activation(k.now(), procs.size() - 1, false);
    if (st.next(4) == 0) notify_timed(*events.back(), Time::ns(1 + st.next(30)));
  }

  void side_action(std::size_t self) {
    switch (st.next(10)) {
      case 0: pick_event().notify_immediate(); break;
      case 1:
      case 2: pick_event().notify(); break;
      case 3:
      case 4:
      case 5: notify_timed(pick_event(), Time::ns(st.next(50))); break;
      case 6: pick_event().cancel(); break;
      case 7: k.request_update(hook); break;
      case 8: {
        const std::size_t victim = st.next(static_cast<std::uint32_t>(procs.size()));
        if (victim != self && st.next(4) == 0) procs[victim]->kill();
        break;
      }
      default: break;
    }
  }

  static Coro thread(OracleSystem& sys, std::size_t i) {
    for (;;) {
      OracleState& st = sys.st;
      st.log_activation(sys.k.now(), i, sys.k.current_process()->last_wait_timed_out());
      if (st.steps_left[i] == 0) co_return;
      --st.steps_left[i];
      for (std::uint32_t a = st.next(3); a > 0; --a) sys.side_action(i);
      switch (st.next(6)) {
        case 0: co_await delay(Time::ns(st.next(40))); break;
        case 1: co_await delay_pinned(Time::ns(st.next(40)), st.pinned_seq++); break;
        case 2: co_await sys.pick_event(); break;
        default: (void)co_await wait_with_timeout(sys.pick_event(), Time::ns(st.next(60))); break;
      }
    }
  }
};

struct OracleResult {
  std::string line;
  std::size_t worst_excess = 0;  // timed entries beyond the bound, worst slice
  bool bound_held = true;
};

OracleResult run_oracle_program(std::uint64_t seed) {
  std::uint64_t drv = seed * 0x9E3779B97F4A7C15ULL + 1;
  auto drive = [&drv](std::uint32_t bound) {
    drv ^= drv << 13;
    drv ^= drv >> 7;
    drv ^= drv << 17;
    return static_cast<std::uint32_t>(drv % bound);
  };
  const std::size_t n_events = 2 + drive(4);
  const std::size_t n_threads = 2 + drive(6);
  OracleState init;
  init.rng = seed * 0xD1B54A32D192ED03ULL + 7;
  for (std::size_t i = 0; i < n_threads; ++i) init.steps_left.push_back(5 + drive(40));

  auto sys = std::make_unique<OracleSystem>(init, n_events, n_threads);
  OracleResult result;
  std::size_t restores = 0;
  for (int slice = 0; slice < 400; ++slice) {
    const RunStatus status = sys->k.run(sys->k.now() + Time::ns(1 + drive(80)), RunBudget{});
    std::size_t live = 0;
    for (const Process* p : sys->procs) live += p->done() ? 0 : 1;
    std::size_t not_due = 0;
    for (const std::uint64_t due : sys->st.due_ps) not_due += due > sys->k.now().picoseconds();
    const KernelSnapshot image = sys->k.snapshot();
    if (image.timed.size() > live + not_due) {
      result.bound_held = false;
      result.worst_excess = std::max(result.worst_excess, image.timed.size() - live - not_due);
    }
    if (status.reason == StopReason::kIdle) break;
    if (drive(3) == 0) {
      auto twin = std::make_unique<OracleSystem>(sys->st, n_events, n_threads);
      twin->k.restore(image);
      sys = std::move(twin);
      ++restores;
    }
  }
  const KernelStats& s = sys->k.stats();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "seed=%llu trace=%016llx activations_logged=%llu now_ps=%llu "
                "stats=%llu/%llu/%llu/%llu/%llu restores=%zu",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(sys->st.trace_hash),
                static_cast<unsigned long long>(sys->st.trace_len),
                static_cast<unsigned long long>(sys->k.now().picoseconds()),
                static_cast<unsigned long long>(s.activations),
                static_cast<unsigned long long>(s.delta_cycles),
                static_cast<unsigned long long>(s.timed_steps),
                static_cast<unsigned long long>(s.notifications),
                static_cast<unsigned long long>(s.updates), restores);
  result.line = buf;
  return result;
}

constexpr std::uint64_t kOraclePrograms = 300;

TEST(KernelOracle, SeededProgramsMatchTheGoldenTraceAndStats) {
  std::ifstream golden(VPS_GOLDEN_DIR "/kernel_oracle.txt");
  ASSERT_TRUE(golden.good()) << "missing " VPS_GOLDEN_DIR "/kernel_oracle.txt";
  std::uint64_t seed = 1;
  std::size_t bound_breaks = 0;
  for (std::string expected; std::getline(golden, expected); ++seed) {
    const OracleResult r = run_oracle_program(seed);
    EXPECT_EQ(r.line, expected);
    if (!r.bound_held) {
      ++bound_breaks;
      ADD_FAILURE() << "seed " << seed << ": " << r.worst_excess
                    << " timed entries beyond live processes + undue notifications";
    }
  }
  EXPECT_EQ(seed - 1, kOraclePrograms);
  EXPECT_EQ(bound_breaks, 0u);
}

// ---------------------------------------------------------------------------
// Dead entries: a wait that is superseded leaves nothing behind.
// ---------------------------------------------------------------------------

TEST(KernelDeadEntries, RearmedWatchdogHoldsOneTimedEntry) {
  Kernel k;
  vps::hw::Watchdog wdg(k, "wdg");
  vps::tlm::InitiatorSocket bus("bus");
  bus.bind(wdg.socket());
  auto write = [&bus](std::uint32_t offset, std::uint32_t value) {
    vps::tlm::GenericPayload p(vps::tlm::Command::kWrite, offset, 4);
    p.set_value_le(value);
    Time delay = Time::zero();
    bus.b_transport(p, delay);
    ASSERT_TRUE(p.ok());
  };
  write(vps::hw::Watchdog::kPeriodUs, 2000);
  write(vps::hw::Watchdog::kCtrl, 1);
  k.spawn("kicker", [](vps::hw::Watchdog& wdg) -> Coro {
    for (;;) {
      wdg.kick();
      co_await delay(10_us);
    }
  }(wdg));
  k.run(20_ms);
  EXPECT_EQ(wdg.timeout_count(), 0u);
  // The kicker's delay and the watchdog's current timeout; none of the
  // 2000 superseded timeouts may still be queued.
  EXPECT_LE(k.snapshot().timed.size(), 2u);
}

TEST(KernelDeadEntries, DestroyedEventWithPendingNotificationsNeverFires) {
  Kernel k;
  int fired = 0;
  std::optional<Event> storage;
  storage.emplace(k, "doomed");
  k.method("listener", [&fired] { ++fired; }, {&*storage}, /*initialize=*/false);
  Event after(k, "after");
  k.spawn("owner", [](Kernel& k, std::optional<Event>& storage, Event& after) -> Coro {
    storage->notify();
    storage->notify(5_ns);
    storage.reset();
    // Same address, fresh ordinal: the doomed event's queued notifications
    // must not find this one.
    storage.emplace(k, "reborn");
    after.notify(10_ns);
    co_return;
  }(k, storage, after));
  k.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(storage->fire_count(), 0u);
  EXPECT_EQ(after.fire_count(), 1u);
  EXPECT_EQ(k.now(), 10_ns);
}

}  // namespace
