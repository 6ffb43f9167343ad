#include "vps/hw/uart.hpp"

#include <algorithm>

#include "vps/support/ensure.hpp"

namespace vps::hw {

using sim::Time;
using support::ensure;

namespace {

/// Validates before dividing: a zero baud rate is a configuration error,
/// not an integer division by zero.
Time bit_time_for(std::uint32_t baud) {
  ensure(baud > 0, "Uart: baud rate must be positive");
  return Time::ps((1'000'000'000'000ULL + baud / 2) / baud);
}

}  // namespace

Uart::Uart(sim::Kernel& kernel, std::string name, UartConfig config)
    : Module(kernel, std::move(name)),
      config_(config),
      bit_time_(bit_time_for(config.baud)),
      tx_enqueued_(kernel, this->name() + ".tx_enqueued"),
      corrupt_requested_(kernel, this->name() + ".corrupt_requested") {
  spawn("shift", shift_loop());
}

void Uart::transmit(const std::uint8_t* data, std::size_t n) {
  tx_fifo_.insert(tx_fifo_.end(), data, data + n);
  bytes_enqueued_ += n;
  tx_enqueued_.notify();
}

void Uart::corrupt_bits(std::uint32_t count, std::uint64_t poison_id) {
  if (frame_wait_) {
    // Settle the bits already on the wire (tie rule in the header). Bits
    // before now() are clean: a frame wait starts with no corruption owed,
    // and a request ends it at the request's own instant. From outside
    // run() the bit completing at now() has shifted as well, carrying what
    // an in-scheduler request at this instant owes it.
    resolve_clean_bits(bits_passed(false));
    if (kernel().current_process() == nullptr && bit_index_ + 1 < frame_bits() &&
        bit_boundary(bit_index_) == now()) {
      shift_bit();
    }
    // End the wait early unless it times out at this very instant: the
    // timed-out wake shifts the last bit through shift_bit() and so applies
    // the request itself.
    if (count > 0 && bit_boundary(frame_bits() - 1) > now()) corrupt_requested_.notify();
  }
  corrupt_remaining_ += count;
  corrupt_poison_ = poison_id;
  corrupt_touched_ = false;
}

void Uart::load_frame() {
  const std::uint16_t data = tx_fifo_.front();
  tx_fifo_.erase(tx_fifo_.begin());
  // Bit 0 = start (0), bits 1..8 = data LSB-first, then [even parity,] stop (1).
  std::uint16_t frame = static_cast<std::uint16_t>(data << 1);
  if (config_.parity) {
    std::uint16_t p = 0;
    for (int i = 0; i < 8; ++i) p ^= (data >> i) & 1u;
    frame |= static_cast<std::uint16_t>(p << 9);
    frame |= 1u << 10;  // stop
  } else {
    frame |= 1u << 9;  // stop
  }
  tx_frame_ = frame;
  rx_frame_ = 0;
  bit_index_ = 0;
  frame_start_ = now();
  shifting_ = true;
}

std::uint64_t Uart::bits_shifted() const noexcept {
  if (!frame_wait_) return bits_shifted_;
  return bits_shifted_ + bits_passed(true) - bit_index_;
}

std::uint32_t Uart::bits_passed(bool at_now_shifted) const noexcept {
  const Time elapsed = now() - frame_start_;
  std::uint64_t n = elapsed / bit_time_;
  if (!at_now_shifted && n > 0 && elapsed % bit_time_ == Time::zero()) --n;
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(n, frame_bits() - 1));
}

void Uart::resolve_clean_bits(std::uint32_t end) noexcept {
  if (end <= bit_index_) return;
  const auto mask = static_cast<std::uint16_t>((1u << end) - (1u << bit_index_));
  rx_frame_ |= tx_frame_ & mask;
  bits_shifted_ += end - bit_index_;
  bit_index_ = end;
}

void Uart::shift_bit() {
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

void Uart::finish_frame() {
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
  // An even number of data-bit flips passes parity: the byte is delivered
  // silently corrupted — the residual the layer above must catch.
  ++bytes_delivered_;
  if (on_byte_) on_byte_(data);
}

sim::Coro Uart::shift_loop() {
  for (;;) {
    if (frame_wait_) {
      // Timed out at the last boundary, or woken by corrupt_bits(). Bits
      // before now() are clean; a bit completing at now() is still owed.
      frame_wait_ = false;
      resolve_clean_bits(bits_passed(false));
      if (bit_boundary(bit_index_) == now()) shift_bit();
    }
    if (bit_pending_) {
      bit_pending_ = false;
      shift_bit();
    }
    if (shifting_) {
      if (corrupt_remaining_ > 0) {
        bit_pending_ = true;
        co_await sim::delay(bit_boundary(bit_index_) - now());
      } else {
        frame_wait_ = true;
        (void)co_await sim::wait_with_timeout(corrupt_requested_,
                                              bit_boundary(frame_bits() - 1) - now());
      }
      continue;
    }
    if (!tx_fifo_.empty()) {
      load_frame();
      continue;
    }
    co_await tx_enqueued_;
  }
}

Uart::Snapshot Uart::snapshot() const {
  Snapshot s;
  s.tx_fifo = tx_fifo_;
  s.shifting = shifting_;
  s.frame_wait = frame_wait_;
  s.bit_pending = bit_pending_;
  s.frame_start = frame_start_;
  s.bit_index = bit_index_;
  s.tx_frame = tx_frame_;
  s.rx_frame = rx_frame_;
  s.frame_corrupted = frame_corrupted_;
  s.corrupt_remaining = corrupt_remaining_;
  s.corrupt_poison = corrupt_poison_;
  s.corrupt_touched = corrupt_touched_;
  s.bytes_enqueued = bytes_enqueued_;
  s.bytes_delivered = bytes_delivered_;
  s.bits_shifted = bits_shifted_;
  s.parity_errors = parity_errors_;
  s.framing_errors = framing_errors_;
  s.frames_corrupted = frames_corrupted_;
  return s;
}

void Uart::restore(const Snapshot& s) {
  tx_fifo_ = s.tx_fifo;
  shifting_ = s.shifting;
  frame_wait_ = s.frame_wait;
  bit_pending_ = s.bit_pending;
  frame_start_ = s.frame_start;
  bit_index_ = s.bit_index;
  tx_frame_ = s.tx_frame;
  rx_frame_ = s.rx_frame;
  frame_corrupted_ = s.frame_corrupted;
  corrupt_remaining_ = s.corrupt_remaining;
  corrupt_poison_ = s.corrupt_poison;
  corrupt_touched_ = s.corrupt_touched;
  bytes_enqueued_ = s.bytes_enqueued;
  bytes_delivered_ = s.bytes_delivered;
  bits_shifted_ = s.bits_shifted;
  parity_errors_ = s.parity_errors;
  framing_errors_ = s.framing_errors;
  frames_corrupted_ = s.frames_corrupted;
}

}  // namespace vps::hw
