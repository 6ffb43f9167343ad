#pragma once

/// Workloads and the rigs that run them. A rig owns everything one
/// campaign needs (scenario instances, the campaign driver and, for the
/// served workload, a CampaignServer with its serve_pool threads). All
/// timing is taken from outside the vps libraries: through a fault::Scenario wrapper that the rig's factory or
/// ScenarioBuilder hands out, and through a CampaignMonitor whose
/// on_progress fires at every batch barrier.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/fault/campaign.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  const char* spec;  ///< apps::make_scenario spec
  vps::fault::Strategy strategy;
  std::size_t runs;  ///< campaign size of one round
  bool served;       ///< through DistCampaign server mode
  /// Pinned fold digest of one round for kDefaultSeed.
  std::uint32_t pinned_digest;
};

inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::size_t kWorkers = 2;

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);
[[nodiscard]] vps::fault::CampaignConfig campaign_config(const Workload& workload,
                                                         std::uint64_t seed);

/// State shared by the wrapped scenarios of one process.
struct ReplayClock {
  /// Span sink; null while tracing is off (one pointer load per replay).
  std::atomic<SpanLog*> log{nullptr};
  /// Parent of golden and warm-up spans (the open setup or campaign span).
  std::atomic<std::uint64_t> parent{0};
  /// Start of the first faulty replay since the last arm(), -1 before it,
  /// and the process CPU time at that moment.
  std::atomic<std::int64_t> first_dispatch_ns{-1};
  std::atomic<double> first_dispatch_cpu_s{0.0};

  void arm() noexcept { first_dispatch_ns.store(-1); }
  void note_dispatch(std::int64_t t) noexcept {
    if (first_dispatch_ns.load(std::memory_order_relaxed) >= 0) return;
    std::int64_t none = -1;
    if (first_dispatch_ns.compare_exchange_strong(none, t)) {
      first_dispatch_cpu_s.store(process_cpu_s());
    }
  }
};

/// Scenario wrapper that times every run() of the scenario it wraps.
/// Golden runs become "golden" spans; faulty runs become "replay" spans, or
/// "replay.capture" when the wrapped instance has not run yet and therefore
/// captures its golden epochs lazily inside that replay.
class TimedScenario final : public vps::fault::Scenario {
 public:
  using GiveBack = std::function<void(std::unique_ptr<vps::fault::Scenario>)>;

  TimedScenario(std::unique_ptr<vps::fault::Scenario> inner, ReplayClock& clock, bool warm,
                GiveBack give_back = {});
  ~TimedScenario() override;
  TimedScenario(const TimedScenario&) = delete;
  TimedScenario& operator=(const TimedScenario&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] vps::sim::Time duration() const override { return inner_->duration(); }
  [[nodiscard]] std::vector<vps::fault::FaultType> fault_types() const override {
    return inner_->fault_types();
  }
  [[nodiscard]] vps::fault::Observation run(const vps::fault::FaultDescriptor* fault,
                                            std::uint64_t seed) override;

 private:
  std::unique_ptr<vps::fault::Scenario> inner_;
  ReplayClock& clock_;
  bool warm_;
  GiveBack give_back_;
};

/// One campaign round as the rig ran it.
struct Round {
  vps::fault::CampaignResult result;
  std::int64_t first_dispatch_ns = 0;
  std::int64_t end_ns = 0;
  double cpu_s = 0.0;               ///< process CPU from the first dispatch to the end
  std::uint64_t campaign_span = 0;  ///< 0 when the round ran untraced
  vps::dist::FleetStats fleet;      ///< this round's share (served only)
};

class Rig {
 public:
  virtual ~Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  /// Runs the campaign once. A non-null `log` records this round's spans
  /// under a "campaign" span whose parent is `parent_span`.
  Round run_round(SpanLog* log, std::uint64_t parent_span);
  [[nodiscard]] virtual const vps::fault::Observation& golden() const = 0;
  /// Stops everything the rig started and waits for it. Returns the runs
  /// the server requeued over the rig's lifetime (0 in-process).
  virtual std::uint64_t shutdown() = 0;

 protected:
  explicit Rig(ReplayClock& clock) : clock_(clock) {}
  [[nodiscard]] virtual vps::fault::CampaignResult execute() = 0;
  [[nodiscard]] virtual vps::dist::FleetStats fleet_stats() const { return {}; }
  ReplayClock& clock_;
};

/// Builds the rig of `workload`: for in-process workloads `workers` scenario
/// instances are pre-warmed (golden epochs captured) before the campaign is
/// created; for the served workload a CampaignServer and `workers`
/// serve_pool threads are started.
[[nodiscard]] std::unique_ptr<Rig> make_rig(const Workload& workload, std::uint64_t seed,
                                            ReplayClock& clock, std::size_t workers);

}  // namespace perfbench
