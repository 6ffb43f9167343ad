// E18 — distributed campaign scaling: runs/second of the in-process
// ParallelCampaign vs the multi-process worker fleet at 1/2/4 workers on
// the CAPS crash scenario, plus the per-run IPC cost (wall time and wire
// bytes/frames per run) and a kill-one-worker resilience row. Every
// configuration must produce the identical result — the throughput table is
// only meaningful because the work is provably the same.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "vps/apps/caps.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/fault/campaign.hpp"

using namespace vps;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

fault::ScenarioFactory caps_factory() {
  return [] {
    return std::make_unique<apps::CapsScenario>(
        apps::CapsConfig{.crash = true, .duration = sim::Time::ms(10)});
  };
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t runs = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 96;

  fault::CampaignConfig cfg;
  cfg.runs = runs;
  cfg.seed = 2026;
  cfg.strategy = fault::Strategy::kGuided;
  cfg.location_buckets = 8;
  cfg.batch_size = 16;

  std::printf("== E18: distributed campaign scaling (CAPS crash, %zu runs) ==\n\n", runs);

  // In-process baseline on one pool thread: the "zero IPC" reference.
  const auto t_base = Clock::now();
  const auto baseline = fault::ParallelCampaign(caps_factory(), cfg).run();
  const double base_s = seconds_since(t_base);
  const double base_per_run_us = base_s / static_cast<double>(runs) * 1e6;
  std::printf("%-28s %8.1f runs/s  %9.1f us/run\n", "in-process (1 thread)",
              static_cast<double>(runs) / base_s, base_per_run_us);

  for (const std::size_t fleet : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    dist::DistConfig dc;
    dc.campaign = cfg;
    dc.workers = fleet;
    dist::DistCampaign campaign(caps_factory(), dc);
    const auto t0 = Clock::now();
    const auto result = campaign.run();
    const double s = seconds_since(t0);
    const bool same = result.outcome_counts == baseline.outcome_counts &&
                      result.coverage_curve == baseline.coverage_curve;
    const auto& fs = campaign.fleet_stats();
    const double per_run_us = s / static_cast<double>(runs) * 1e6;
    char label[64];
    std::snprintf(label, sizeof label, "distributed, %zu worker(s)", fleet);
    std::printf("%-28s %8.1f runs/s  %9.1f us/run  ipc %+8.1f us/run  "
                "%5.0f B/run (%llu frames)  identical: %s\n",
                label, static_cast<double>(runs) / s, per_run_us, per_run_us - base_per_run_us,
                static_cast<double>(fs.bytes_sent + fs.bytes_received) /
                    static_cast<double>(runs),
                static_cast<unsigned long long>(fs.frames_sent + fs.frames_received),
                same ? "yes" : "NO — BUG");
    if (!same) return 1;
  }

  // Resilience row: kill one of two workers a third of the way in; the
  // result must not move and the overhead shows the requeue cost.
  {
    dist::DistConfig dc;
    dc.campaign = cfg;
    dc.workers = 2;
    dc.kill_after_assigns = runs / 3;
    dc.kill_worker = 0;
    dist::DistCampaign campaign(caps_factory(), dc);
    const auto t0 = Clock::now();
    const auto result = campaign.run();
    const double s = seconds_since(t0);
    const bool same = result.outcome_counts == baseline.outcome_counts &&
                      result.coverage_curve == baseline.coverage_curve;
    const auto& fs = campaign.fleet_stats();
    std::printf("%-28s %8.1f runs/s  %9.1f us/run  deaths %llu, requeued %llu  identical: %s\n",
                "distributed, 2w, 1 killed", static_cast<double>(runs) / s,
                s / static_cast<double>(runs) * 1e6,
                static_cast<unsigned long long>(fs.worker_deaths),
                static_cast<unsigned long long>(fs.requeued_runs), same ? "yes" : "NO — BUG");
    if (!same || fs.worker_deaths != 1) return 1;
  }

  std::printf("\nevery distributed configuration reproduced the in-process result bitwise\n");
  return 0;
}
