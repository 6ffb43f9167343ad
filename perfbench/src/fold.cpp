#include "fold.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <thread>

#include "vps/apps/registry.hpp"
#include "vps/fault/codec.hpp"
#include "vps/support/crc.hpp"

namespace perfbench {

namespace codec = vps::fault::codec;
using vps::fault::CampaignResult;
using vps::fault::Observation;
using vps::fault::RunRecord;

namespace {

/// Codec spelling of an observation, for a bitwise comparison of two runs.
std::string encode_observation(const Observation& observation) {
  std::string line = "{";
  codec::append_observation(line, observation);
  line += '}';
  return line;
}

}  // namespace

std::vector<std::string> encode_records(const std::vector<RunRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::string line = "{\"kind\":\"record\"";
    codec::append_record(line, records[i], i);
    line += '}';
    lines.push_back(std::move(line));
  }
  return lines;
}

std::vector<RunRecord> decode_records(const std::vector<std::string>& lines) {
  std::vector<RunRecord> records;
  records.reserve(lines.size());
  for (const std::string& line : lines) records.push_back(codec::record_from(codec::LineParser(line)));
  return records;
}

std::uint32_t fold_digest(const CampaignResult& result, const std::vector<std::string>& lines) {
  vps::support::Crc32 crc;
  for (const std::string& line : lines) {
    crc.update(std::span(reinterpret_cast<const std::uint8_t*>(line.data()), line.size()));
    crc.update_u64('\n');
  }
  for (const std::uint64_t count : result.outcome_counts) crc.update_u64(count);
  crc.update_u64(result.runs_executed);
  for (const double c : result.coverage_curve) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c, sizeof bits);
    crc.update_u64(bits);
  }
  return crc.value();
}

std::size_t differing_records(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t differ = std::max(a.size(), b.size()) - common;
  for (std::size_t i = 0; i < common; ++i) differ += a[i] != b[i] ? 1 : 0;
  return differ;
}

Reverification reverify(const std::string& spec, std::uint64_t seed, const Observation& golden,
                        const std::vector<RunRecord>& records, std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);

  std::vector<std::size_t> mismatched(threads, 0);
  std::vector<char> golden_ok(threads, 0);
  const std::string want_golden = encode_observation(golden);
  const auto work = [&](std::size_t t) {
    try {
      auto scenario = vps::apps::make_scenario(spec);
      scenario->set_snapshot_replay(false);
      const Observation full_golden = scenario->run(nullptr, seed);
      golden_ok[t] = encode_observation(full_golden) == want_golden ? 1 : 0;
      for (std::size_t k = t; k < records.size(); k += threads) {
        const RunRecord& record = records[k];
        const Observation faulty = scenario->run(&record.fault, seed);
        if (vps::fault::classify(full_golden, faulty) != record.outcome) ++mismatched[t];
      }
    } catch (...) {
      // A replay that throws here is a verdict that could not be reproduced;
      // count this thread's whole share as mismatched.
      golden_ok[t] = 0;
      mismatched[t] = 0;
      for (std::size_t k = t; k < records.size(); k += threads) ++mismatched[t];
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work, t);
  work(0);
  for (std::thread& th : pool) th.join();

  Reverification out;
  out.checked = records.size();
  out.golden_matches = std::all_of(golden_ok.begin(), golden_ok.end(), [](char ok) { return ok; });
  for (const std::size_t m : mismatched) out.mismatched += m;
  return out;
}

}  // namespace perfbench
