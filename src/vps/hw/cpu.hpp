#pragma once

/// AR32 instruction-set simulator as a loosely-timed TLM initiator with
/// temporal decoupling. The core executes batches of instructions against a
/// local time offset and synchronizes with the kernel once per quantum —
/// the VP acceleration pattern whose cost/accuracy trade-off E4 measures.
///
/// Poll-loop fast-forward: when the core returns to the target of a
/// backward branch within one batch and the iteration just completed left
/// the register file and interrupt state unchanged, made no DMI write,
/// entered no interrupt and made at most kMaxLoopAccesses bus accesses,
/// each of which its target agreed to repeat (tlm::BlockingTransport::
/// b_repeat), every further iteration would be identical: nothing but time
/// and counters moves until the kernel runs again. The core then applies the
/// n whole iterations that still end before the quantum boundary in O(1) —
/// local time, every Stats field and the targets' counters advance by n
/// times the iteration's delta — and executes the rest one by one. The
/// per-instruction path stays in force whenever a trace hook or a
/// provenance tracker is attached, without DMI, or with a zero quantum.

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "vps/hw/isa.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"
#include "vps/sim/signal.hpp"
#include "vps/tlm/payload.hpp"
#include "vps/tlm/quantum.hpp"
#include "vps/tlm/sockets.hpp"

namespace vps::hw {

class Cpu final : public sim::Module {
 public:
  enum class State : std::uint8_t { kRunning, kSleeping, kHalted, kFaulted };
  enum class FaultCause : std::uint8_t { kNone, kIllegalInstruction, kBusError, kMisaligned };

  struct Config {
    sim::Time cycle_time = sim::Time::ns(10);  ///< 100 MHz core clock
    sim::Time quantum = sim::Time::us(10);     ///< temporal-decoupling quantum
    std::uint32_t reset_pc = 0;
    std::uint32_t irq_vector = 0x10;
    bool use_dmi = true;  ///< fast path into unprotected memories
  };

  struct Stats {
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches_taken = 0;
    std::uint64_t irqs_taken = 0;
    std::uint64_t dmi_accesses = 0;
    std::uint64_t bus_accesses = 0;
  };

  Cpu(sim::Kernel& kernel, std::string name, Config config);

  [[nodiscard]] tlm::InitiatorSocket& socket() noexcept { return socket_; }
  /// Level-sensitive interrupt request input.
  void connect_irq(sim::Signal<bool>& line) noexcept { irq_line_ = &line; }

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] FaultCause fault_cause() const noexcept { return fault_cause_; }
  [[nodiscard]] std::uint32_t fault_address() const noexcept { return fault_address_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Loop iterations this instance applied by poll-loop fast-forward
  /// instead of executing them (diagnostic, not part of the snapshot;
  /// Stats counts them as executed either way).
  [[nodiscard]] std::uint64_t fast_forwarded_iterations() const noexcept {
    return fast_forwarded_;
  }
  [[nodiscard]] tlm::QuantumKeeper& quantum_keeper() noexcept { return qk_; }

  [[nodiscard]] std::uint32_t pc() const noexcept { return pc_; }
  void set_pc(std::uint32_t pc) noexcept { pc_ = pc; }
  [[nodiscard]] std::uint32_t reg(int i) const { return regs_.at(static_cast<std::size_t>(i)); }
  void set_reg(int i, std::uint32_t v) {
    if (i != 0) regs_.at(static_cast<std::size_t>(i)) = v;
  }

  /// Returns the core to reset state and resumes execution if halted.
  void reset();

  /// Fired whenever the core stops executing (halt or fault) — monitors use
  /// this to detect hangs and HW-detected faults.
  [[nodiscard]] sim::Event& stopped_event() noexcept { return stopped_event_; }

  // --- fault-injection interface -----------------------------------------
  /// XORs a mask into a register file entry (SEU in the register file). A
  /// non-zero fault_id taints the register for provenance tracking: the
  /// first instruction consuming it records the contact, stores forward the
  /// taint onto the outgoing payload, and clean overwrites clear it.
  void corrupt_register(int i, std::uint32_t xor_mask, std::uint64_t fault_id = 0);
  /// XORs a mask into the program counter (control-flow upset).
  void corrupt_pc(std::uint32_t xor_mask, std::uint64_t fault_id = 0);

  /// Attaches a provenance tracker. Disabled cost: one branch per executed
  /// instruction (taint mask test) plus one per bus access, mirroring the
  /// trace-hook pattern. nullptr detaches and drops all taint.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept {
    provenance_ = tracker;
    if (tracker == nullptr) {
      taint_mask_ = 0;
      store_poison_ = 0;
      load_poison_ = 0;
    }
  }

  /// Optional per-instruction hook (pc, decoded instruction). Used by
  /// coverage collectors; adds one branch to the hot loop when unset.
  void set_trace_hook(std::function<void(std::uint32_t, const Decoded&)> hook) {
    trace_hook_ = std::move(hook);
  }

  // --- snapshot-and-fork replay -------------------------------------------
  /// Value-type image of the architectural and micro-architectural state.
  /// The DMI grant is captured as its address window only: restore
  /// re-acquires the pointer from the bound target so it lands in the
  /// twin's backing store, never the snapshot source's.
  struct Snapshot {
    State state = State::kRunning;
    FaultCause fault_cause = FaultCause::kNone;
    std::uint32_t fault_address = 0;
    std::uint32_t pc = 0;
    std::array<std::uint32_t, kRegisterCount> regs{};
    bool irq_enabled = false;
    bool in_irq = false;
    std::uint32_t saved_pc = 0;
    Stats stats;
    tlm::QuantumKeeper::Snapshot qk;
    bool dmi_held = false;
    std::uint64_t dmi_start = 0;
    std::uint32_t taint_mask = 0;
    std::array<std::uint64_t, kRegisterCount> reg_taint{};
  };

  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& s);

 private:
  [[nodiscard]] sim::Coro main_loop();
  /// Executes one instruction; returns false when execution must pause
  /// (halt/fault/sleep). Accumulates local time into the quantum keeper.
  bool step();
  /// Cold taint bookkeeping, entered only while registers are tainted:
  /// records first consumption of a corrupted register, forwards taint to
  /// written registers and store payloads, clears it on clean overwrites.
  void track_taint(const Decoded& d);
  void enter_irq();
  void fault(FaultCause cause, std::uint32_t address);

  bool bus_read(std::uint32_t address, std::size_t size, std::uint32_t& value);
  bool bus_write(std::uint32_t address, std::size_t size, std::uint32_t value);

  /// Called on arrival at the target of a taken backward branch: applies
  /// the fast-forward when the iteration since the last arrival there
  /// qualifies, then starts recording the next one.
  void at_loop_head();
  [[nodiscard]] bool iteration_repeats() const noexcept;
  /// Applies the whole iterations that fit before the quantum boundary;
  /// false when a target refuses to repeat its access.
  bool fast_forward();
  /// Bus accesses the recorded iteration made, as payloads for b_repeat.
  void log_bus_access(tlm::Command command, std::uint32_t address, std::size_t size,
                      std::uint32_t value) noexcept;

  Config config_;
  tlm::InitiatorSocket socket_;
  tlm::QuantumKeeper qk_;
  sim::Signal<bool>* irq_line_ = nullptr;
  sim::Event reset_event_;
  sim::Event stopped_event_;

  State state_ = State::kRunning;
  FaultCause fault_cause_ = FaultCause::kNone;
  std::uint32_t fault_address_ = 0;
  std::uint32_t pc_;
  std::array<std::uint32_t, kRegisterCount> regs_{};
  bool irq_enabled_ = false;
  bool in_irq_ = false;
  std::uint32_t saved_pc_ = 0;

  tlm::DmiRegion dmi_;
  Stats stats_;
  std::function<void(std::uint32_t, const Decoded&)> trace_hook_;

  // Poll-loop fast-forward: the state at the last arrival at a loop head in
  // the current batch, and the bus accesses made since.
  static constexpr std::size_t kMaxLoopAccesses = 4;
  static constexpr std::uint32_t kMaxLoopBackoff = 64;
  struct LoopIteration {
    bool armed = false;
    std::uint32_t backoff = 0;  ///< arrivals skipped after the last failed check
    std::uint32_t skip = 0;     ///< arrivals still to skip before recording again
    std::uint32_t head = 0;
    std::array<std::uint32_t, kRegisterCount> regs{};
    bool irq_enabled = false;
    bool in_irq = false;
    std::uint32_t saved_pc = 0;
    Stats stats;
    sim::Time local;
    std::size_t accesses = 0;  ///< may exceed kMaxLoopAccesses; only the first are kept
    std::size_t bus_writes = 0;
    std::array<tlm::GenericPayload, kMaxLoopAccesses> log;
  };
  LoopIteration loop_;
  bool loop_head_hit_ = false;  ///< set by step() on a taken backward branch
  std::uint64_t fast_forwarded_ = 0;

  // Provenance: register-file taint (bit i of taint_mask_ set = regs_[i]
  // carries fault reg_taint_[i]); store_poison_/load_poison_ hand fault ids
  // across the bus_write/bus_read boundary within one instruction.
  obs::ProvenanceTracker* provenance_ = nullptr;
  std::uint32_t taint_mask_ = 0;
  std::array<std::uint64_t, kRegisterCount> reg_taint_{};
  std::uint64_t store_poison_ = 0;
  std::uint64_t load_poison_ = 0;
};

[[nodiscard]] const char* to_string(Cpu::State s) noexcept;
[[nodiscard]] const char* to_string(Cpu::FaultCause c) noexcept;

}  // namespace vps::hw
