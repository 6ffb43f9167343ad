#include "rig.hpp"

#include <algorithm>
#include <mutex>
#include <thread>

#include "vps/apps/registry.hpp"
#include "vps/dist/server.hpp"
#include "vps/dist/worker.hpp"
#include "vps/obs/campaign_monitor.hpp"

namespace perfbench {

namespace dist = vps::dist;
namespace fault = vps::fault;

namespace {

constexpr const char* kHost = "127.0.0.1";

/// Closes the open batch span at every barrier while the round is traced.
class BarrierMonitor final : public vps::obs::CampaignMonitor {
 public:
  explicit BarrierMonitor(ReplayClock& clock) : clock_(clock) {}
  void on_progress(const vps::obs::CampaignProgress&) override {
    if (SpanLog* log = clock_.log.load()) log->close_batch(clock_.parent.load(), now_ns());
  }
  void on_complete(const vps::obs::CampaignProgress&) override {}

 private:
  ReplayClock& clock_;
};

/// Scenario instances of the in-process factory, golden epochs captured up
/// front so lazy capture is not charged to the campaign. The factory's
/// first call is the driver's coordinator: it gets a cold instance whose
/// golden run captures its own epochs, exactly as in any campaign.
class WarmPool {
 public:
  WarmPool(const std::string& spec, std::uint64_t seed, std::size_t count, ReplayClock& clock)
      : spec_(spec), clock_(clock) {
    idle_.resize(count);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < count; ++i) {
      threads.emplace_back([this, i, seed] {
        const std::int64_t t0 = now_ns();
        idle_[i] = vps::apps::make_scenario(spec_);
        (void)idle_[i]->run(nullptr, seed);
        if (SpanLog* log = clock_.log.load()) log->add("warm", clock_.parent.load(), t0, now_ns());
      });
    }
    for (std::thread& t : threads) t.join();
  }
  WarmPool(const WarmPool&) = delete;
  WarmPool& operator=(const WarmPool&) = delete;

  fault::ScenarioFactory factory() {
    return [this]() -> std::unique_ptr<fault::Scenario> {
      std::unique_ptr<fault::Scenario> inner;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!coordinator_built_) {
          coordinator_built_ = true;
        } else if (!idle_.empty()) {
          inner = std::move(idle_.back());
          idle_.pop_back();
        }
      }
      const bool warm = inner != nullptr;
      if (!warm) inner = vps::apps::make_scenario(spec_);
      return std::make_unique<TimedScenario>(
          std::move(inner), clock_, warm, [this](std::unique_ptr<fault::Scenario> s) {
            std::lock_guard<std::mutex> lock(mutex_);
            idle_.push_back(std::move(s));
          });
    };
  }

 private:
  const std::string spec_;
  ReplayClock& clock_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<fault::Scenario>> idle_;  // guarded by mutex_
  bool coordinator_built_ = false;                      // guarded by mutex_
};

class InProcessRig final : public Rig {
 public:
  InProcessRig(const Workload& workload, std::uint64_t seed, ReplayClock& clock,
               std::size_t workers)
      : Rig(clock),
        pool_(workload.spec, seed, workers, clock),
        monitor_(clock),
        campaign_(pool_.factory(), [&] {
          fault::CampaignConfig cfg = campaign_config(workload, seed);
          cfg.workers = workers;
          return cfg;
        }()) {
    campaign_.set_monitor(&monitor_);
  }

  const fault::Observation& golden() const override { return campaign_.golden(); }
  std::uint64_t shutdown() override { return 0; }

 private:
  fault::CampaignResult execute() override { return campaign_.run(); }

  WarmPool pool_;  // before campaign_: outlives every scenario it lends
  BarrierMonitor monitor_;
  fault::ParallelCampaign campaign_;
};

std::uint64_t registry_counter(const vps::obs::MetricRegistry& registry, const std::string& name) {
  const std::string key = "\"metric\":\"" + name + "\",\"kind\":\"counter\",\"value\":";
  const std::string jsonl = registry.to_jsonl();
  const std::size_t at = jsonl.find(key);
  return at == std::string::npos ? 0 : std::stoull(jsonl.substr(at + key.size()));
}

class ServedRig final : public Rig {
 public:
  ServedRig(const Workload& workload, std::uint64_t seed, ReplayClock& clock, std::size_t workers)
      : Rig(clock), server_(dist::ServerConfig{}), monitor_(clock) {
    server_.start();
    dist::PoolConfig pool;
    pool.host = kHost;
    pool.port = server_.port();
    // Teardown relies on SHUTDOWN; a short reconnect budget keeps a lost
    // link from holding the process for the default minutes of backoff.
    pool.max_reconnects = 3;
    pool.backoff_initial_ms = 20;
    pool.backoff_max_ms = 200;
    const dist::ScenarioBuilder build = [&clock](const dist::SetupMsg& setup) {
      return std::make_unique<TimedScenario>(vps::apps::make_scenario(setup.scenario_spec), clock,
                                             /*warm=*/false);
    };
    dist::DistConfig dc;
    dc.campaign = campaign_config(workload, seed);
    dc.server_host = kHost;
    dc.server_port = server_.port();
    dc.tenant = "perfbench";
    dc.scenario_spec = workload.spec;
    const std::string spec = workload.spec;
    campaign_ = std::make_unique<dist::DistCampaign>(
        [spec, &clock] {
          return std::make_unique<TimedScenario>(vps::apps::make_scenario(spec), clock, false);
        },
        dc);
    campaign_->set_monitor(&monitor_);
    for (std::size_t i = 0; i < workers; ++i) {
      pool_threads_.emplace_back([pool, build] { (void)dist::serve_pool(pool, build); });
    }
  }
  ~ServedRig() override { (void)shutdown(); }

  const fault::Observation& golden() const override { return campaign_->golden(); }

  std::uint64_t shutdown() override {
    if (!stopped_) {
      stopped_ = true;
      server_.stop();
      for (std::thread& t : pool_threads_) t.join();
      requeued_ = registry_counter(server_.metrics(), "server.requeued_runs");
    }
    return requeued_;
  }

 private:
  fault::CampaignResult execute() override { return campaign_->run(); }
  dist::FleetStats fleet_stats() const override { return campaign_->fleet_stats(); }

  dist::CampaignServer server_;
  BarrierMonitor monitor_;
  std::unique_ptr<dist::DistCampaign> campaign_;
  std::vector<std::thread> pool_threads_;  // joined by shutdown()
  bool stopped_ = false;
  std::uint64_t requeued_ = 0;
};

dist::FleetStats minus(const dist::FleetStats& a, const dist::FleetStats& b) {
  dist::FleetStats d;
  d.requeued_runs = a.requeued_runs - b.requeued_runs;
  d.frames_sent = a.frames_sent - b.frames_sent;
  d.frames_received = a.frames_received - b.frames_received;
  d.bytes_sent = a.bytes_sent - b.bytes_sent;
  d.bytes_received = a.bytes_received - b.bytes_received;
  d.reconnects = a.reconnects - b.reconnects;
  return d;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"caps_mc", "caps:crash", fault::Strategy::kMonteCarlo, 128, false, 0x57cdaed6u},
      {"bms_guided", "bms:runaway", fault::Strategy::kGuided, 1024, false, 0xcfdde6fcu},
      {"bms_served", "bms:runaway", fault::Strategy::kGuided, 1024, true, 0xcfdde6fcu},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

fault::CampaignConfig campaign_config(const Workload& workload, std::uint64_t seed) {
  fault::CampaignConfig cfg;
  cfg.runs = workload.runs;
  cfg.seed = seed;
  cfg.strategy = workload.strategy;
  return cfg;
}

TimedScenario::TimedScenario(std::unique_ptr<fault::Scenario> inner, ReplayClock& clock,
                             bool warm, GiveBack give_back)
    : inner_(std::move(inner)), clock_(clock), warm_(warm), give_back_(std::move(give_back)) {}

TimedScenario::~TimedScenario() {
  if (give_back_) give_back_(std::move(inner_));
}

fault::Observation TimedScenario::run(const fault::FaultDescriptor* fault, std::uint64_t seed) {
  inner_->set_snapshot_replay(snapshot_replay());
  const std::int64_t t0 = now_ns();
  if (fault != nullptr) clock_.note_dispatch(t0);
  fault::Observation observation = inner_->run(fault, seed);
  if (SpanLog* log = clock_.log.load()) {
    const std::int64_t t1 = now_ns();
    if (fault == nullptr) {
      log->add("golden", clock_.parent.load(), t0, t1);
    } else {
      const std::uint64_t total = std::max<std::uint64_t>(1, inner_->duration().picoseconds());
      const auto eighth = static_cast<std::int64_t>(
          std::min<std::uint64_t>(7, fault->inject_at.picoseconds() * 8 / total));
      log->add(warm_ ? "replay" : "replay.capture", SpanLog::kPending, t0, t1, eighth);
    }
  }
  warm_ = true;
  return observation;
}

Round Rig::run_round(SpanLog* log, std::uint64_t parent_span) {
  Round round;
  const dist::FleetStats fleet_before = fleet_stats();
  round.campaign_span = log != nullptr ? log->reserve() : 0;
  clock_.log.store(log);
  clock_.parent.store(round.campaign_span);
  clock_.arm();
  const std::int64_t start_ns = now_ns();
  round.result = execute();
  round.end_ns = now_ns();
  round.cpu_s = process_cpu_s() - clock_.first_dispatch_cpu_s.load();
  clock_.log.store(nullptr);
  round.first_dispatch_ns = clock_.first_dispatch_ns.load();
  if (log != nullptr) {
    log->add("campaign", parent_span, start_ns, round.end_ns,
             static_cast<std::int64_t>(round.result.runs_executed), round.campaign_span);
  }
  round.fleet = minus(fleet_stats(), fleet_before);
  return round;
}

std::unique_ptr<Rig> make_rig(const Workload& workload, std::uint64_t seed, ReplayClock& clock,
                              std::size_t workers) {
  if (workload.served) return std::make_unique<ServedRig>(workload, seed, clock, workers);
  return std::make_unique<InProcessRig>(workload, seed, clock, workers);
}

}  // namespace perfbench
