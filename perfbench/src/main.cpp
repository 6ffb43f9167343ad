// Campaign-throughput benchmark: runs one workload's fault campaign round
// after round for a fixed wall-clock budget, checks every fold bitwise, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics)
// as the last stdout line:
//   {"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
//   perfbench --workload caps_mc|bms_guided|bms_served --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR]
//
// Exit code 0 when every check passed, 1 on a failed check (the result line
// is still printed), 2 on bad arguments.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fold.hpp"
#include "probes.hpp"
#include "rig.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "vps/apps/registry.hpp"
#include "vps/fault/campaign.hpp"

namespace {

using namespace perfbench;
namespace fault = vps::fault;

/// Folded records of each round re-verified against full replays.
constexpr std::size_t kReverifyPerRound = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return find_workload(opt.workload) != nullptr;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Tallies of the fold checks: every folded run is attempted; a run fails
/// when it crashed, was requeued, or disagreed with a reference fold or a
/// full replay.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::uint64_t runs, const std::string& what) {
    failed += std::max<std::uint64_t>(1, runs);
    problems.push_back(what);
  }
};

/// Measured rounds. The reported rates are medians over rounds, so a burst
/// of host contention that hits a few rounds does not move them.
struct Totals {
  std::uint64_t runs = 0;
  double wall_s = 0.0;
  std::vector<double> runs_per_s;  ///< per round
  std::vector<double> cpu_ms;      ///< per round, per folded run

  void add(std::size_t round_runs, double round_wall_s, double round_cpu_s) {
    runs += round_runs;
    wall_s += round_wall_s;
    runs_per_s.push_back(static_cast<double>(round_runs) / round_wall_s);
    cpu_ms.push_back(round_cpu_s * 1e3 / static_cast<double>(round_runs));
  }
};

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// survives execve, so under a launcher it can report the launcher's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double duration_ms(const Span& s) { return ns_to_ms(s.end_ns - s.start_ns); }

/// Per-layer metrics derived from the spans of the traced rounds.
void span_metrics(const std::vector<Span>& spans, const std::set<std::uint64_t>& campaigns,
                  double traced_wall_s, double sim_seconds, std::vector<Metric>& out) {
  std::map<std::uint64_t, std::uint64_t> batch_campaign;  // batch id → campaign id
  std::vector<double> batch_ms;
  std::vector<double> golden_ms;
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double encoded = 0.0;
  double decoded = 0.0;
  for (const Span& s : spans) {
    if (s.name == "batch" && campaigns.count(s.parent) != 0) {
      batch_campaign[s.id] = s.parent;
      batch_ms.push_back(duration_ms(s));
    } else if (s.name == "golden") {
      golden_ms.push_back(duration_ms(s));
    } else if (s.name == "codec.encode") {
      encode_ms += duration_ms(s);
      encoded += static_cast<double>(s.arg);
    } else if (s.name == "codec.decode") {
      decode_ms += duration_ms(s);
      decoded += static_cast<double>(s.arg);
    }
  }

  std::vector<double> replay_ms;
  std::vector<double> early_ms;
  std::vector<double> late_ms;
  double busy_ms = 0.0;
  // (first start, last end) of each batch's replays, and each pool thread's
  // replays per campaign, for the barrier and idle gaps.
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> batch_extent;
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<std::pair<std::int64_t, std::int64_t>>>
      per_thread;
  for (const Span& s : spans) {
    if (s.name != "replay" && s.name != "replay.capture") continue;
    const auto batch = batch_campaign.find(s.parent);
    if (batch == batch_campaign.end()) continue;
    busy_ms += duration_ms(s);
    if (s.name == "replay") {
      replay_ms.push_back(duration_ms(s));
      if (s.arg == 0) early_ms.push_back(duration_ms(s));
      if (s.arg == 7) late_ms.push_back(duration_ms(s));
    }
    auto [it, fresh] = batch_extent.try_emplace(s.parent, s.start_ns, s.end_ns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.start_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
    per_thread[{batch->second, s.thread}].emplace_back(s.start_ns, s.end_ns);
  }

  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> campaign_batches;
  for (const auto& [batch, extent] : batch_extent) {
    campaign_batches[batch_campaign[batch]].push_back(extent);
  }
  std::vector<double> barrier_ms;
  for (auto& [campaign, extents] : campaign_batches) {
    std::sort(extents.begin(), extents.end());
    for (std::size_t i = 1; i < extents.size(); ++i) {
      barrier_ms.push_back(ns_to_ms(extents[i].first - extents[i - 1].second));
    }
  }
  std::vector<double> idle_ms;
  for (auto& [key, runs] : per_thread) {
    std::sort(runs.begin(), runs.end());
    for (std::size_t i = 1; i < runs.size(); ++i) {
      idle_ms.push_back(ns_to_ms(runs[i].first - runs[i - 1].second));
    }
  }

  const Tail replay_tail = tail(replay_ms);
  const double golden = median(golden_ms);
  out.push_back({"apps.replay_ms_p50", median(replay_ms), "ms"});
  out.push_back({"apps.replay_ms_p99", replay_tail.value, "ms"});
  out.push_back({"apps.replay_tail_level", replay_tail.level, "fraction"});
  out.push_back({"apps.replay_samples", static_cast<double>(replay_ms.size()), "count"});
  out.push_back({"apps.replay_ms_early_p50", median(early_ms), "ms"});
  out.push_back({"apps.replay_ms_late_p50", median(late_ms), "ms"});
  out.push_back({"apps.golden_ms", golden, "ms"});
  out.push_back({"apps.golden_sim_speed", golden > 0 ? sim_seconds / (golden * 1e-3) : 0.0, "s/s"});
  out.push_back({"fault.pool_busy_frac",
                 traced_wall_s > 0 ? busy_ms * 1e-3 / (traced_wall_s * kWorkers) : 0.0,
                 "fraction"});
  out.push_back({"fault.barrier_ms_p50", median(barrier_ms), "ms"});
  out.push_back({"fault.batch_ms_p50", median(batch_ms), "ms"});
  out.push_back({"fault.codec_encode_us", encoded > 0 ? encode_ms * 1e3 / encoded : 0.0, "us"});
  out.push_back({"fault.codec_decode_us", decoded > 0 ? decode_ms * 1e3 / decoded : 0.0, "us"});
  out.push_back({"dist.worker_idle_ms_p50", median(idle_ms), "ms"});
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  for (const std::string& p : checks.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  std::string line = "{\"correct\":";
  line += checks.failed == 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(checks.attempted);
  line += ",\"failed\":" + std::to_string(checks.failed);
  line += ",\"metrics\":{";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    line += (i == 0 ? "\"" : ",\"") + metrics[i].name + "\":{\"value\":" + buf +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Campaign seed of round r: the run's own seed first, then distinct seeds
/// derived from it, so one run folds many independent fault sets.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t r) {
  if (r == 0) return seed;
  const std::uint64_t s = mix(seed * 0x9E3779B97F4A7C15ULL + r);
  return s == 0 ? 1 : s;
}

/// Records of one round kept for re-verification against full replays.
struct Sample {
  std::uint64_t seed = 0;
  fault::Observation golden;
  std::vector<fault::RunRecord> records;
};

int run(const Options& opt) {
  const Workload& w = *find_workload(opt.workload);
  const std::int64_t run_start = now_ns();
  SpanLog log(mix(mix(opt.seed) ^ static_cast<std::uint64_t>(run_start) ^
                  (static_cast<std::uint64_t>(::getpid()) << 32)));
  const std::uint64_t root = log.reserve();
  ReplayClock clock;
  Checks checks;

  std::vector<double> setup_s;
  Totals measured;
  Totals traced_totals;
  Totals untraced_totals;
  std::set<std::uint64_t> traced_campaigns;
  vps::dist::FleetStats fleet;
  std::uint64_t requeued = 0;
  fault::CampaignResult first_result;  // round 0: the run's own seed
  std::vector<std::string> first_lines;
  std::vector<std::string> previous_lines;
  std::vector<double> traced_over_untraced;  // per seed pair of a traced run
  std::vector<Sample> samples;
  const std::size_t stride = std::max<std::size_t>(1, w.runs / kReverifyPerRound);

  // Every round builds a fresh rig (its set-up is timed up to the first
  // faulty dispatch), folds one campaign and tears the rig down. A traced
  // run folds every seed twice, traced and untraced (alternating which goes
  // first), and the two folds must be identical.
  for (std::uint64_t r = 0;; ++r) {
    const bool traced_round = opt.trace && r % 2 == (r / 2) % 2;
    const std::uint64_t seed = round_seed(opt.seed, opt.trace ? r / 2 : r);
    SpanLog* const rlog = traced_round ? &log : nullptr;
    const std::uint64_t setup_span = rlog != nullptr ? log.reserve() : 0;
    clock.log.store(rlog);
    clock.parent.store(setup_span);
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Rig> rig = make_rig(w, seed, clock, kWorkers);
    Round round = rig->run_round(rlog, root);
    const fault::Observation golden = rig->golden();
    requeued += rig->shutdown();
    rig.reset();
    if (round.first_dispatch_ns < 0) throw std::runtime_error("no faulty replay was dispatched");
    setup_s.push_back(ns_to_s(round.first_dispatch_ns - t0));
    if (rlog != nullptr) log.add("setup", root, t0, round.first_dispatch_ns, -1, setup_span);

    const fault::CampaignResult& result = round.result;
    const double wall_s = ns_to_s(round.end_ns - round.first_dispatch_ns);
    measured.add(result.runs_executed, wall_s, round.cpu_s);
    (traced_round ? traced_totals : untraced_totals).add(result.runs_executed, wall_s, round.cpu_s);
    if (traced_round) traced_campaigns.insert(round.campaign_span);
    std::printf("round %llu seed=%llu%s runs=%zu setup=%.4fs wall=%.3fs cpu=%.3fs runs/s=%.2f\n",
                static_cast<unsigned long long>(r), static_cast<unsigned long long>(seed),
                traced_round ? " traced" : "", result.runs_executed, setup_s.back(), wall_s,
                round.cpu_s, measured.runs_per_s.back());
    fleet.frames_sent += round.fleet.frames_sent;
    fleet.frames_received += round.fleet.frames_received;
    fleet.bytes_sent += round.fleet.bytes_sent;
    fleet.bytes_received += round.fleet.bytes_received;
    fleet.reconnects += round.fleet.reconnects;
    fleet.requeued_runs += round.fleet.requeued_runs;

    checks.attempted += result.runs_executed;
    if (const auto crashed = result.count(fault::Outcome::kSimCrash); crashed != 0) {
      checks.fail(crashed, std::to_string(crashed) + " replay(s) ended in kSimCrash");
    }
    const std::int64_t e0 = now_ns();
    std::vector<std::string> lines = encode_records(result.records);
    const std::int64_t e1 = now_ns();
    if (traced_round) {
      log.add("codec.encode", round.campaign_span, e0, e1, static_cast<std::int64_t>(lines.size()));
      const std::vector<fault::RunRecord> decoded = decode_records(lines);
      log.add("codec.decode", round.campaign_span, e1, now_ns(),
              static_cast<std::int64_t>(lines.size()));
      if (encode_records(decoded) != lines) checks.fail(1, "codec round trip is not byte-exact");
    }
    if (opt.trace && r % 2 == 1) {
      if (lines != previous_lines) {
        checks.fail(differing_records(lines, previous_lines),
                    "the untraced fold differs from the traced fold of the same seed");
      }
      const double rate = measured.runs_per_s.back();
      const double twin = measured.runs_per_s[measured.runs_per_s.size() - 2];
      traced_over_untraced.push_back(traced_round ? rate / twin : twin / rate);
    }
    if (!opt.trace || traced_round) {  // an untraced twin folds the same records
      Sample sample{seed, golden, {}};
      for (std::size_t i = 0; i < result.records.size(); i += stride) {
        sample.records.push_back(result.records[i]);
      }
      samples.push_back(std::move(sample));
    }
    if (r == 0) {
      first_result = result;
      first_lines = lines;
    }
    previous_lines = std::move(lines);

    const bool pair_complete = !opt.trace || r % 2 == 1;
    if (ns_to_s(now_ns() - run_start) >= opt.seconds && pair_complete) break;
  }
  const double rss_mb = peak_rss_mb();  // before the verification below allocates
  if (fleet.requeued_runs + requeued != 0) {
    checks.fail(fleet.requeued_runs + requeued, "runs were requeued");
  }

  // --- fold checks --------------------------------------------------------
  const std::uint32_t digest = fold_digest(first_result, first_lines);
  if (opt.seed == kDefaultSeed && digest != w.pinned_digest) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "fold digest %08x differs from the pinned %08x", digest,
                  w.pinned_digest);
    checks.fail(1, msg);
  }
  if (w.served) {
    // The served fold must be bitwise the in-process fold of the same spec.
    fault::CampaignConfig cfg = campaign_config(w, opt.seed);
    cfg.workers = kWorkers;
    const std::string spec = w.spec;
    const fault::CampaignResult local =
        fault::ParallelCampaign([spec] { return vps::apps::make_scenario(spec); }, cfg).run();
    const std::vector<std::string> local_lines = encode_records(local.records);
    if (fold_digest(local, local_lines) != digest) {
      checks.fail(differing_records(local_lines, first_lines),
                  "served fold differs from the in-process fold");
    }
  }
  if (encode_records(decode_records(first_lines)) != first_lines) {
    checks.fail(1, "codec round trip is not byte-exact");
  }
  std::size_t reverified = 0;
  for (const Sample& s : samples) {
    const Reverification rv = reverify(w.spec, s.seed, s.golden, s.records, kWorkers);
    reverified += rv.checked;
    checks.attempted += rv.checked;
    if (rv.mismatched != 0) {
      checks.fail(rv.mismatched, std::to_string(rv.mismatched) + " of " +
                                     std::to_string(rv.checked) +
                                     " folded outcomes differ from full replays");
    }
    if (!rv.golden_matches) checks.fail(1, "full golden run differs from the campaign golden");
  }

  std::printf("perfbench %s seed=%llu rounds=%zu runs=%llu digest=%08x reverified=%zu\n", w.name,
              static_cast<unsigned long long>(opt.seed), measured.runs_per_s.size(),
              static_cast<unsigned long long>(measured.runs), digest, reverified);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics.push_back({"runs_per_s", median(measured.runs_per_s), "1/s"});
    metrics.push_back({"cpu_ms_per_run", median(measured.cpu_ms), "ms"});
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  } else {
    const ProbeResults probes = run_probes(&log, root);
    if (!probes.correct) checks.fail(1, "a layer probe computed a wrong result");
    const double sim_seconds = vps::apps::make_scenario(w.spec)->duration().to_seconds();
    span_metrics(log.spans(), traced_campaigns, traced_totals.wall_s, sim_seconds, metrics);
    const double runs = static_cast<double>(measured.runs);
    metrics.push_back({"dist.frames_per_run",
                       static_cast<double>(fleet.frames_sent + fleet.frames_received) / runs,
                       "count"});
    metrics.push_back({"dist.bytes_per_run",
                       static_cast<double>(fleet.bytes_sent + fleet.bytes_received) / runs, "B"});
    metrics.push_back(
        {"dist.requeued_runs", static_cast<double>(fleet.requeued_runs + requeued), "count"});
    metrics.push_back({"dist.reconnects", static_cast<double>(fleet.reconnects), "count"});
    metrics.push_back({"sim.kernel_mevents_per_s", probes.kernel_mevents_per_s, "M/s"});
    metrics.push_back({"ecu.os_activations_per_s", probes.os_activations_per_s, "1/s"});
    metrics.push_back({"hw.iss_mips_dmi", probes.iss_mips_dmi, "MIPS"});
    metrics.push_back({"hw.iss_mips_bus", probes.iss_mips_bus, "MIPS"});
    metrics.push_back({"hw.bus_access_frac", probes.bus_access_frac, "fraction"});
    metrics.push_back({"tlm.router_mtx_per_s", probes.router_mtx_per_s, "M/s"});
    metrics.push_back({"failed_run_frac",
                       static_cast<double>(checks.failed) / static_cast<double>(checks.attempted),
                       "fraction"});
    metrics.push_back({"trace.runs_per_s_traced", median(traced_totals.runs_per_s), "1/s"});
    metrics.push_back({"trace.runs_per_s_untraced", median(untraced_totals.runs_per_s), "1/s"});
    metrics.push_back({"trace.overhead_frac", 1.0 - median(traced_over_untraced), "fraction"});
    log.add("workload", 0, run_start, now_ns(), -1, root);
    if (!opt.trace_dir.empty()) {
      const std::string path = opt.trace_dir + "/" + w.name + ".seed" +
                               std::to_string(opt.seed) + ".spans.jsonl";
      std::ofstream out(path, std::ios::trunc);
      out << log.to_jsonl();
      if (!out) {
        checks.fail(1, "could not write " + path);
      } else {
        std::printf("spans: %s\n", path.c_str());
      }
    }
  }
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload caps_mc|bms_guided|bms_served --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
