// UART line model: the frame-level wake (one kernel activation per frame,
// clean bits resolved lazily) against the one-wake-per-bit model it
// replaced, kept here as the reference oracle. Seeded schedules
// put transmissions and corruption bursts on and off the bit-time grid —
// in-scheduler requests from processes spawned at elaboration (the
// fault::InjectorHub shape) and requests from outside Kernel::run between
// chunked runs — and compare delivered bytes with their timestamps, every
// counter and the provenance DAGs. Also: mid-frame snapshot/restore in both
// wait states, the wake-count pin, and baud-rate validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "vps/hw/uart.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/rng.hpp"

namespace ref {

using namespace vps;
using sim::Time;

/// The one-wake-per-bit UART: every line bit is a kernel wake, and a
/// corruption request simply hits the next bit the shift process shifts.
class BitUart final : public sim::Module {
 public:
  BitUart(sim::Kernel& kernel, std::string name, hw::UartConfig config = {})
      : Module(kernel, std::move(name)),
        config_(config),
        bit_time_(Time::ps((1'000'000'000'000ULL + config.baud / 2) / config.baud)),
        tx_enqueued_(kernel, this->name() + ".tx_enqueued") {
    spawn("shift", shift_loop());
  }

  void transmit(const std::uint8_t* data, std::size_t n) {
    tx_fifo_.insert(tx_fifo_.end(), data, data + n);
    bytes_enqueued_ += n;
    tx_enqueued_.notify();
  }
  void set_on_byte(std::function<void(std::uint8_t)> on_byte) { on_byte_ = std::move(on_byte); }
  void corrupt_bits(std::uint32_t count, std::uint64_t poison_id = 0) {
    corrupt_remaining_ += count;
    corrupt_poison_ = poison_id;
    corrupt_touched_ = false;
  }
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept { provenance_ = tracker; }

  [[nodiscard]] Time bit_time() const noexcept { return bit_time_; }
  [[nodiscard]] bool idle() const noexcept { return !shifting_ && tx_fifo_.empty(); }
  [[nodiscard]] std::uint64_t bytes_enqueued() const noexcept { return bytes_enqueued_; }
  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept { return bytes_delivered_; }
  [[nodiscard]] std::uint64_t bits_shifted() const noexcept { return bits_shifted_; }
  [[nodiscard]] std::uint64_t parity_errors() const noexcept { return parity_errors_; }
  [[nodiscard]] std::uint64_t framing_errors() const noexcept { return framing_errors_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept { return frames_corrupted_; }

 private:
  [[nodiscard]] std::uint32_t frame_bits() const noexcept { return config_.parity ? 11 : 10; }

  void load_frame() {
    const std::uint16_t data = tx_fifo_.front();
    tx_fifo_.erase(tx_fifo_.begin());
    std::uint16_t frame = static_cast<std::uint16_t>(data << 1);
    if (config_.parity) {
      std::uint16_t p = 0;
      for (int i = 0; i < 8; ++i) p ^= (data >> i) & 1u;
      frame |= static_cast<std::uint16_t>(p << 9);
      frame |= 1u << 10;
    } else {
      frame |= 1u << 9;
    }
    tx_frame_ = frame;
    rx_frame_ = 0;
    bit_index_ = 0;
    shifting_ = true;
  }

  void shift_bit() {
    std::uint16_t bit = (tx_frame_ >> bit_index_) & 1u;
    if (corrupt_remaining_ > 0) {
      --corrupt_remaining_;
      bit ^= 1u;
      frame_corrupted_ = true;
      if (provenance_ != nullptr && corrupt_poison_ != 0 && !corrupt_touched_) {
        corrupt_touched_ = true;
        provenance_->touch(corrupt_poison_, "uart:" + name());
      }
    }
    rx_frame_ |= static_cast<std::uint16_t>(bit << bit_index_);
    ++bit_index_;
    ++bits_shifted_;
    if (bit_index_ == frame_bits()) {
      shifting_ = false;
      finish_frame();
    }
  }

  void finish_frame() {
    const bool was_corrupted = frame_corrupted_;
    frame_corrupted_ = false;
    if (was_corrupted) ++frames_corrupted_;
    const bool start = (rx_frame_ & 1u) != 0;
    const bool stop = ((rx_frame_ >> (frame_bits() - 1)) & 1u) != 0;
    const auto data = static_cast<std::uint8_t>((rx_frame_ >> 1) & 0xFFu);
    if (start || !stop) {
      ++framing_errors_;
      if (provenance_ != nullptr && was_corrupted && corrupt_poison_ != 0) {
        provenance_->detect(corrupt_poison_, "uart.framing:" + name());
      }
      return;
    }
    if (config_.parity) {
      std::uint16_t p = (rx_frame_ >> 9) & 1u;
      for (int i = 0; i < 8; ++i) p ^= (data >> i) & 1u;
      if (p != 0) {
        ++parity_errors_;
        if (provenance_ != nullptr && was_corrupted && corrupt_poison_ != 0) {
          provenance_->detect(corrupt_poison_, "uart.parity:" + name());
        }
        return;
      }
    }
    ++bytes_delivered_;
    if (on_byte_) on_byte_(data);
  }

  [[nodiscard]] sim::Coro shift_loop() {
    for (;;) {
      if (bit_pending_) {
        bit_pending_ = false;
        shift_bit();
      }
      if (shifting_) {
        bit_pending_ = true;
        co_await sim::delay(bit_time_);
        continue;
      }
      if (!tx_fifo_.empty()) {
        load_frame();
        continue;
      }
      co_await tx_enqueued_;
    }
  }

  hw::UartConfig config_;
  Time bit_time_;
  sim::Event tx_enqueued_;
  std::function<void(std::uint8_t)> on_byte_;
  obs::ProvenanceTracker* provenance_ = nullptr;
  std::vector<std::uint8_t> tx_fifo_;
  bool shifting_ = false;
  bool bit_pending_ = false;
  std::uint32_t bit_index_ = 0;
  std::uint16_t tx_frame_ = 0;
  std::uint16_t rx_frame_ = 0;
  bool frame_corrupted_ = false;
  std::uint32_t corrupt_remaining_ = 0;
  std::uint64_t corrupt_poison_ = 0;
  bool corrupt_touched_ = false;
  std::uint64_t bytes_enqueued_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t bits_shifted_ = 0;
  std::uint64_t parity_errors_ = 0;
  std::uint64_t framing_errors_ = 0;
  std::uint64_t frames_corrupted_ = 0;
};

}  // namespace ref

namespace {

using namespace vps;
using sim::Time;

[[nodiscard]] Time bit_time_of(std::uint32_t baud) {
  return Time::ps((1'000'000'000'000ULL + baud / 2) / baud);
}

struct Transmission {
  Time at;
  std::vector<std::uint8_t> bytes;
};

struct Burst {
  Time at;
  std::uint32_t count = 0;
  std::uint64_t poison = 0;  ///< 0 = unattributed
  bool stop = false;         ///< the in-scheduler request then calls Kernel::stop()
};

/// Things done from outside Kernel::run once run(until) has returned.
struct Stop {
  Time until;
  std::vector<Burst> bursts;
  std::vector<std::uint8_t> bytes;  ///< transmitted after the bursts
};

struct Schedule {
  hw::UartConfig config;
  std::vector<Transmission> tx;  ///< by one process, in time order
  std::vector<Burst> bursts;     ///< one elaboration-time process each
  std::vector<Stop> stops;       ///< strictly increasing `until`
};

/// One line model under a schedule, on its own kernel. Processes are spawned
/// in the same order for either model, so both kernels key their timed
/// entries identically apart from the UART's own.
template <typename Model>
struct Rig {
  sim::Kernel kernel;
  Model uart;
  obs::ProvenanceTracker prov{kernel};
  std::vector<std::pair<std::uint8_t, Time>> delivered;
  std::ostringstream log;  ///< observations made from outside run()

  explicit Rig(const Schedule& s) : uart(kernel, "u", s.config) {
    uart.set_provenance(&prov);
    uart.set_on_byte([this](std::uint8_t b) { delivered.emplace_back(b, kernel.now()); });
    kernel.spawn("tx", transmitter(*this, s.tx));
    for (const Burst& b : s.bursts) kernel.spawn("burst", injector(*this, b));
  }

  void request(const Burst& b) {
    if (b.poison != 0) prov.begin_fault(b.poison, "burst#" + std::to_string(b.poison), "inject");
    uart.corrupt_bits(b.count, b.poison);
  }

  void sample() {
    log << kernel.now().picoseconds() << ':' << uart.idle() << ',' << uart.bytes_enqueued() << ','
        << uart.bytes_delivered() << ',' << uart.bits_shifted() << ',' << uart.parity_errors()
        << ',' << uart.framing_errors() << ',' << uart.frames_corrupted() << ' ';
  }

  void play(const Schedule& s) {
    for (const Stop& stop : s.stops) {
      (void)kernel.run(stop.until);
      sample();
      for (const Burst& b : stop.bursts) request(b);
      if (!stop.bytes.empty()) uart.transmit(stop.bytes.data(), stop.bytes.size());
      sample();
    }
    while (kernel.run(Time::max(), {}).reason == sim::StopReason::kStopRequested) {
    }
    sample();
  }

  [[nodiscard]] static sim::Coro transmitter(Rig& rig, std::vector<Transmission> tx) {
    for (const Transmission& t : tx) {
      co_await sim::delay(t.at - rig.kernel.now());
      rig.uart.transmit(t.bytes.data(), t.bytes.size());
    }
  }

  /// The hub's shape: spawned at elaboration, one delay, then the request.
  /// A stopping request returns control mid-instant, so requests from
  /// outside run() can follow it at the same simulated time.
  [[nodiscard]] static sim::Coro injector(Rig& rig, Burst b) {
    co_await sim::delay(b.at);
    rig.request(b);
    if (b.stop) rig.kernel.stop();
  }
};

[[nodiscard]] Schedule make_schedule(std::uint64_t seed) {
  support::Xorshift rng(seed);
  static constexpr std::uint32_t kBauds[] = {115200, 9600, 1'000'000, 250'000};
  Schedule s;
  s.config.baud = kBauds[rng.index(4)];
  s.config.parity = rng.chance(0.75);
  const Time bit = bit_time_of(s.config.baud);
  // Mostly on the bit-time grid, so requests land exactly on boundaries.
  auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
    Time t = bit * rng.uniform_u64(lo, hi);
    if (rng.chance(0.3)) t += Time::ps(rng.uniform_u64(1, bit.picoseconds() - 1));
    return t;
  };
  auto bytes = [&](std::size_t max) {
    std::vector<std::uint8_t> v(1 + rng.index(max));
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
    return v;
  };
  std::uint64_t poison = 0;
  auto burst = [&](Time at, bool in_run) {
    // Up to 25 bits: a burst may span frames, and may start on an idle line.
    const auto count = static_cast<std::uint32_t>(rng.chance(0.3) ? rng.uniform_u64(10, 25)
                                                                  : rng.uniform_u64(1, 9));
    return Burst{at, count, rng.chance(0.8) ? ++poison : 0,
                 in_run && rng.chance(0.15)};
  };

  const std::size_t n_tx = 1 + rng.index(4);
  for (std::size_t i = 0; i < n_tx; ++i) s.tx.push_back({pick(0, 120), bytes(4)});
  std::sort(s.tx.begin(), s.tx.end(), [](const auto& a, const auto& b) { return a.at < b.at; });
  const std::size_t n_bursts = rng.index(5);
  for (std::size_t i = 0; i < n_bursts; ++i) s.bursts.push_back(burst(pick(0, 160), true));

  std::vector<Time> untils;
  const std::size_t n_stops = rng.index(6);
  for (std::size_t i = 0; i < n_stops; ++i) untils.push_back(pick(1, 170));
  std::sort(untils.begin(), untils.end());
  untils.erase(std::unique(untils.begin(), untils.end()), untils.end());
  for (Time until : untils) {
    Stop stop{until, {}, {}};
    if (rng.chance(0.5)) stop.bursts.push_back(burst(until, false));
    if (rng.chance(0.15)) stop.bursts.push_back(burst(until, false));
    if (rng.chance(0.25)) stop.bytes = bytes(3);
    s.stops.push_back(std::move(stop));
  }
  return s;
}

template <typename Model>
[[nodiscard]] std::string outcome(Rig<Model>& rig) {
  std::ostringstream out;
  out << "log " << rig.log.str() << "\nbytes";
  for (const auto& [b, at] : rig.delivered) out << ' ' << int{b} << '@' << at.picoseconds();
  out << "\nend " << rig.kernel.now().picoseconds() << "\nprov " << rig.prov.to_jsonl();
  return out.str();
}

// --------------------------------------------------------------------------
// (a) Equivalence with the one-wake-per-bit reference
// --------------------------------------------------------------------------

TEST(UartFrameWake, MatchesBitLevelReferenceOnSeededSchedules) {
  constexpr std::uint64_t kSchedules = 2000;
  std::uint64_t corrupted_frames = 0;
  std::uint64_t on_grid_requests = 0;
  for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
    const Schedule s = make_schedule(seed);
    auto bit_rig = std::make_unique<Rig<ref::BitUart>>(s);
    auto frame_rig = std::make_unique<Rig<hw::Uart>>(s);
    bit_rig->play(s);
    frame_rig->play(s);
    ASSERT_EQ(outcome(*frame_rig), outcome(*bit_rig)) << "schedule seed " << seed;
    corrupted_frames += bit_rig->uart.frames_corrupted();
    const Time bit = frame_rig->uart.bit_time();
    for (const Burst& b : s.bursts) on_grid_requests += b.at % bit == Time::zero();
    for (const Stop& stop : s.stops) {
      on_grid_requests += stop.until % bit == Time::zero() ? stop.bursts.size() : 0;
    }
  }
  // The schedules must actually exercise the line faults and the tie rule.
  EXPECT_GT(corrupted_frames, kSchedules);
  EXPECT_GT(on_grid_requests, kSchedules);
}

// --------------------------------------------------------------------------
// (b) Snapshot/restore in the middle of a frame
// --------------------------------------------------------------------------

struct Line {
  sim::Kernel kernel;
  hw::Uart uart{kernel, "u"};
  std::vector<std::pair<std::uint8_t, Time>> delivered;
  std::vector<std::uint64_t> bits_seen;

  Line() {
    uart.set_on_byte([this](std::uint8_t b) { delivered.emplace_back(b, kernel.now()); });
  }

  /// The continuation both the restored twin and the original run: an
  /// on-boundary request, a burst spanning two frames, a late transmission.
  void finish(Time bit) {
    (void)kernel.run(bit * 30);
    bits_seen.push_back(uart.bits_shifted());
    uart.corrupt_bits(3);
    (void)kernel.run(bit * 40 + bit / 3);
    bits_seen.push_back(uart.bits_shifted());
    uart.corrupt_bits(14);
    const std::uint8_t late[2] = {0x3C, 0xC3};
    uart.transmit(late, 2);
    (void)kernel.run();
    bits_seen.push_back(uart.bits_shifted());
  }
};

/// Runs `prefix` on a line, snapshots it, restores the image onto a fresh
/// twin, then finishes both; the twin must match the original exactly.
void expect_restore_continues(const std::function<void(Line&)>& prefix,
                              const std::function<void(const hw::Uart::Snapshot&)>& state) {
  Line original;
  const std::uint8_t data[4] = {0x55, 0x00, 0xFF, 0x81};
  original.uart.transmit(data, 4);
  prefix(original);
  const sim::KernelSnapshot ks = original.kernel.snapshot();
  const hw::Uart::Snapshot us = original.uart.snapshot();
  state(us);
  const std::size_t delivered_before = original.delivered.size();
  const std::uint64_t bits_before = original.uart.bits_shifted();

  Line twin;
  twin.kernel.restore(ks);
  twin.uart.restore(us);
  EXPECT_EQ(twin.uart.bits_shifted(), bits_before);

  const Time bit = original.uart.bit_time();
  original.finish(bit);
  twin.finish(bit);
  const std::vector<std::pair<std::uint8_t, Time>> suffix(
      original.delivered.begin() + static_cast<std::ptrdiff_t>(delivered_before),
      original.delivered.end());
  EXPECT_EQ(twin.delivered, suffix);
  EXPECT_EQ(twin.bits_seen, original.bits_seen);
  EXPECT_EQ(twin.kernel.now(), original.kernel.now());
  EXPECT_EQ(twin.uart.bytes_enqueued(), original.uart.bytes_enqueued());
  EXPECT_EQ(twin.uart.bytes_delivered(), original.uart.bytes_delivered());
  EXPECT_EQ(twin.uart.parity_errors(), original.uart.parity_errors());
  EXPECT_EQ(twin.uart.framing_errors(), original.uart.framing_errors());
  EXPECT_EQ(twin.uart.frames_corrupted(), original.uart.frames_corrupted());
  EXPECT_GT(original.uart.frames_corrupted(), 0u);
}

TEST(UartFrameWake, RestoreMidFrameWaitContinuesExactly) {
  expect_restore_continues(
      [](Line& line) {
        const Time bit = line.uart.bit_time();
        (void)line.kernel.run(bit * 15 + bit / 3);  // inside the second frame
      },
      [](const hw::Uart::Snapshot& s) {
        EXPECT_TRUE(s.frame_wait);
        EXPECT_FALSE(s.bit_pending);
      });
}

TEST(UartFrameWake, RestoreMidBitSteppingContinuesExactly) {
  expect_restore_continues(
      [](Line& line) {
        const Time bit = line.uart.bit_time();
        (void)line.kernel.run(bit * 12 + bit / 2);
        line.uart.corrupt_bits(6);
        (void)line.kernel.run(bit * 15);  // three of the six bits shifted
      },
      [](const hw::Uart::Snapshot& s) {
        EXPECT_FALSE(s.frame_wait);
        EXPECT_TRUE(s.bit_pending);
        EXPECT_EQ(s.corrupt_remaining, 3u);
      });
}

// --------------------------------------------------------------------------
// (c) Wake-count pin, baud validation
// --------------------------------------------------------------------------

TEST(UartFrameWake, ThreeCleanBytesCostFourActivations) {
  sim::Kernel kernel;
  hw::Uart uart(kernel, "u");
  const std::uint8_t data[3] = {0x00, 0xA5, 0xFF};
  uart.transmit(data, 3);
  (void)kernel.run();
  EXPECT_EQ(uart.bytes_delivered(), 3u);
  EXPECT_EQ(uart.bits_shifted(), 33u);
  // The initial slice plus one wake per frame; a wake per bit costs 34.
  EXPECT_EQ(kernel.stats().activations, 4u);
}

TEST(UartFrameWake, CleanFramesLeaveNoStaleWaiters) {
  sim::Kernel kernel;
  hw::Uart uart(kernel, "u");
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 37);
  uart.transmit(data.data(), data.size());
  (void)kernel.run();
  ASSERT_EQ(uart.bytes_delivered(), 1000u);
  // Every frame parks on the corrupt-request event with a timeout that
  // wins; the next frame's wait must take over that stale entry.
  for (const sim::KernelSnapshot::EventImage& e : kernel.snapshot().events) {
    EXPECT_LE(e.dynamic_waiters.size(), 1u);
  }
}

TEST(UartFrameWake, RequestOnTheLastBoundaryRidesTheTimedOutWake) {
  sim::Kernel kernel;
  hw::Uart uart(kernel, "u");
  const Time bit = uart.bit_time();
  kernel.spawn("burst", [](hw::Uart& uart, Time at) -> sim::Coro {
    co_await sim::delay(at);
    uart.corrupt_bits(1);
  }(uart, bit * 11));
  (void)kernel.run(Time::zero());  // elaborate on an idle line, as the BMS twin does
  const std::uint8_t data[2] = {0x12, 0x34};
  uart.transmit(data, 2);
  (void)kernel.run();
  EXPECT_EQ(uart.framing_errors(), 1u);  // the first frame's stop bit flipped
  EXPECT_EQ(uart.bytes_delivered(), 1u);
  // Two initial slices, the frame load, the burst, two frame ends: the
  // request needs no wake of its own.
  EXPECT_EQ(kernel.stats().activations, 6u);
}

TEST(UartConfigCheck, ZeroBaudIsAnInvariantErrorNotADivisionByZero) {
  sim::Kernel kernel;
  EXPECT_THROW(hw::Uart(kernel, "u", {.baud = 0}), support::InvariantError);
}

}  // namespace
