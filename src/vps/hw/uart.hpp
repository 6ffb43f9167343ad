#pragma once

/// Point-to-point UART with shift-register timing: bytes queue in a TX
/// FIFO and are serialized bit by bit at the configured baud rate (start
/// bit, 8 data bits LSB-first, optional even parity, stop bit). The
/// receiving end of the wire reassembles the frame and checks framing
/// (start/stop levels) and parity, so line corruption is *detectable* at
/// this layer — and a double bit flip inside the data bits passes parity
/// silently, which is exactly the residual-error behaviour an end-to-end
/// checksum above the UART must catch. corrupt_bits() is the injectable
/// fault site: it inverts the next N line bits, modelling an EMI burst.
///
/// Timing is bit-accurate but the kernel is woken once per frame: a frame
/// with no corruption owed parks the shift process on a single wait that
/// times out at the last bit's boundary (bit j of a frame loaded at t0
/// completes at t0 + bit_time * (j + 1)). Nothing outside the UART can
/// observe a wire bit before the frame ends, so clean bits resolve lazily
/// from the transmitted frame. A corrupt_bits() request during that wait
/// first resolves the bits already on the wire, then wakes the process,
/// which steps one delay per bit while corruption is owed and returns to a
/// frame-level wait for the rest — provenance touch/detect keep their
/// simulated timestamps.
///
/// Tie rule for a request arriving exactly on a bit boundary:
///   - from outside Kernel::run (no current process), the bit completing
///     at now() has already shifted, carrying any corruption owed to it;
///     the request hits the next bit;
///   - from inside the scheduler, the bit completing at now() is not yet
///     shifted and the request hits it. This is what a one-wake-per-bit
///     model does for fault::InjectorHub, the only in-scheduler caller: its
///     injection wake is keyed at or below Kernel::init_seq_mark(), so it
///     runs before every line wake scheduled after the first evaluate phase
///     (the line is idle during elaboration). A process ordered after the
///     line's boundary wake would see the bit model hit the next bit.
/// A frame wait that times out shifts the last bit at now() through
/// shift_bit(), so a same-instant in-scheduler request still hits it.
///
/// The shift process is written restore-safe (DESIGN.md sec. 6): the wait
/// outstanding at the next resume is named by a pending flag (frame wait or
/// single bit) and handled at the top of the loop, so a coroutine recreated
/// by Kernel::restore continues mid-frame exactly where the snapshotted
/// original was parked.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"

namespace vps::hw {

struct UartConfig {
  std::uint32_t baud = 115200;
  bool parity = true;  ///< even parity bit between data and stop
};

class Uart final : public sim::Module {
 public:
  Uart(sim::Kernel& kernel, std::string name, UartConfig config = {});

  /// Queues `n` bytes for transmission (the TX FIFO is unbounded — flow
  /// control is the caller's problem at this abstraction level).
  void transmit(const std::uint8_t* data, std::size_t n);

  /// Delivery callback for correctly framed, parity-clean bytes.
  void set_on_byte(std::function<void(std::uint8_t)> on_byte) {
    on_byte_ = std::move(on_byte);
  }

  /// Fault site: inverts the next `count` bits on the wire (start/data/
  /// parity/stop alike); see the tie rule above for a request landing on a
  /// bit boundary. A non-zero poison_id attributes the corruption for
  /// provenance tracking.
  void corrupt_bits(std::uint32_t count, std::uint64_t poison_id = 0);

  /// nullptr detaches.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept { provenance_ = tracker; }

  [[nodiscard]] sim::Time bit_time() const noexcept { return bit_time_; }
  [[nodiscard]] sim::Time byte_time() const noexcept { return bit_time_ * frame_bits(); }
  [[nodiscard]] bool idle() const noexcept { return !shifting_ && tx_fifo_.empty(); }

  [[nodiscard]] std::uint64_t bytes_enqueued() const noexcept { return bytes_enqueued_; }
  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept { return bytes_delivered_; }
  /// Every bit whose boundary has passed, including clean bits of the
  /// current frame that are not yet resolved.
  [[nodiscard]] std::uint64_t bits_shifted() const noexcept;
  [[nodiscard]] std::uint64_t parity_errors() const noexcept { return parity_errors_; }
  [[nodiscard]] std::uint64_t framing_errors() const noexcept { return framing_errors_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept { return frames_corrupted_; }

  // --- snapshot-and-fork replay -------------------------------------------
  struct Snapshot {
    std::vector<std::uint8_t> tx_fifo;
    bool shifting = false;
    bool frame_wait = false;
    bool bit_pending = false;
    sim::Time frame_start;
    std::uint32_t bit_index = 0;
    std::uint16_t tx_frame = 0;
    std::uint16_t rx_frame = 0;
    bool frame_corrupted = false;
    std::uint32_t corrupt_remaining = 0;
    std::uint64_t corrupt_poison = 0;
    bool corrupt_touched = false;
    std::uint64_t bytes_enqueued = 0;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t bits_shifted = 0;
    std::uint64_t parity_errors = 0;
    std::uint64_t framing_errors = 0;
    std::uint64_t frames_corrupted = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& s);

 private:
  [[nodiscard]] std::uint32_t frame_bits() const noexcept { return config_.parity ? 11 : 10; }
  [[nodiscard]] sim::Coro shift_loop();
  /// Boundary of frame bit `index`: the instant it has fully shifted.
  [[nodiscard]] sim::Time bit_boundary(std::uint32_t index) const noexcept {
    return frame_start_ + bit_time_ * (index + 1);
  }
  /// Frame bits whose boundary lies before now() (or at it, when
  /// `at_now_shifted`), capped below the last bit, which only the shift
  /// process shifts.
  [[nodiscard]] std::uint32_t bits_passed(bool at_now_shifted) const noexcept;
  /// Moves the clean bits [bit_index_, end) from the TX frame to the RX frame.
  void resolve_clean_bits(std::uint32_t end) noexcept;
  void load_frame();
  void shift_bit();
  void finish_frame();

  UartConfig config_;
  sim::Time bit_time_;
  sim::Event tx_enqueued_;
  sim::Event corrupt_requested_;  ///< ends a frame wait early
  std::function<void(std::uint8_t)> on_byte_;
  obs::ProvenanceTracker* provenance_ = nullptr;

  std::vector<std::uint8_t> tx_fifo_;
  bool shifting_ = false;
  bool frame_wait_ = false;      ///< a frame-level wait is outstanding
  bool bit_pending_ = false;     ///< a line bit is owed at the next resume
  sim::Time frame_start_;        ///< when the current frame was loaded
  std::uint32_t bit_index_ = 0;  ///< next frame bit to shift
  std::uint16_t tx_frame_ = 0;  ///< frame as driven by the transmitter
  std::uint16_t rx_frame_ = 0;  ///< frame as sampled off the (possibly corrupted) wire
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

}  // namespace vps::hw
