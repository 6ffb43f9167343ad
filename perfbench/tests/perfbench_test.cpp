// The benchmark's own tests: the tail-percentile rule, the fold digest's
// sensitivity, the codec round trip, and fold re-verification on a seed the
// benchmark's pinned digests were not taken from.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fold.hpp"
#include "rig.hpp"
#include "stats.hpp"
#include "vps/apps/registry.hpp"
#include "vps/fault/campaign.hpp"

namespace {

using namespace perfbench;
namespace fault = vps::fault;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));  // unsorted input
  return v;
}

std::size_t samples_above(const std::vector<double>& v, double x) {
  std::size_t n = 0;
  for (const double s : v) n += s > x ? 1 : 0;
  return n;
}

TEST(Percentile, MedianAndInterpolation) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({5.0}), 5.0);
  EXPECT_EQ(median({1.0, 3.0}), 2.0);
  EXPECT_EQ(quantile(ramp(101), 0.25), 26.0);
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_level(1000), 0.99);
  EXPECT_DOUBLE_EQ(tail_level(5000), 0.99);
  EXPECT_DOUBLE_EQ(tail_level(500), 0.98);
  EXPECT_DOUBLE_EQ(tail_level(10), 0.0);
  EXPECT_DOUBLE_EQ(tail_level(3), 0.0);
  for (const std::size_t n : {11u, 20u, 57u, 200u, 999u, 1000u, 1001u, 4321u}) {
    const std::vector<double> v = ramp(n);
    const Tail t = tail(v);
    EXPECT_GE(samples_above(v, t.value), 10u) << "n=" << n;
    if (n < 1000) {
      // Below 1000 samples the rule, not the 0.99 cap, sets the level: one
      // rank higher would leave fewer than ten samples beyond it.
      EXPECT_EQ(samples_above(v, t.value), 10u) << "n=" << n;
    }
  }
}

std::uint32_t digest(const fault::CampaignResult& result) {
  return fold_digest(result, encode_records(result.records));
}

/// One small real fold to perturb.
const fault::CampaignResult& small_fold() {
  static const fault::CampaignResult result = [] {
    fault::CampaignConfig cfg;
    cfg.runs = 24;
    cfg.seed = 5;
    cfg.workers = 2;
    return fault::ParallelCampaign([] { return vps::apps::make_scenario("bms:runaway:quick"); },
                                   cfg)
        .run();
  }();
  return result;
}

TEST(FoldDigest, CatchesOneFlippedOutcome) {
  const fault::CampaignResult& base = small_fold();
  fault::CampaignResult flipped = base;
  auto& outcome = flipped.records[flipped.records.size() / 2].outcome;
  outcome = outcome == fault::Outcome::kHazard ? fault::Outcome::kNoEffect : fault::Outcome::kHazard;
  EXPECT_NE(digest(base), digest(flipped));
  EXPECT_EQ(differing_records(encode_records(base.records), encode_records(flipped.records)), 1u);
}

TEST(FoldDigest, CatchesADroppedRecord) {
  const fault::CampaignResult& base = small_fold();
  fault::CampaignResult dropped = base;
  dropped.records.pop_back();
  EXPECT_NE(digest(base), digest(dropped));
  EXPECT_GE(differing_records(encode_records(base.records), encode_records(dropped.records)), 1u);
}

TEST(FoldDigest, EqualFoldsEqualDigests) {
  const fault::CampaignResult copy = small_fold();
  EXPECT_EQ(digest(small_fold()), digest(copy));
}

TEST(Codec, RoundTripIsByteExact) {
  const std::vector<std::string> lines = encode_records(small_fold().records);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(encode_records(decode_records(lines)), lines);
}

TEST(Reverify, HeldOutSeedMatchesFullReplays) {
  // Seed 9001 is not the pinned default: the snapshot-forked fold must still
  // agree with full replays run outcome by outcome.
  const Workload& w = *find_workload("bms_guided");
  fault::CampaignConfig cfg = campaign_config(w, 9001);
  cfg.runs = 64;
  cfg.workers = 2;
  fault::ParallelCampaign campaign([&w] { return vps::apps::make_scenario(w.spec); }, cfg);
  const fault::CampaignResult result = campaign.run();
  std::vector<fault::RunRecord> every_fourth;
  for (std::size_t i = 0; i < result.records.size(); i += 4) every_fourth.push_back(result.records[i]);
  const Reverification rv = reverify(w.spec, cfg.seed, campaign.golden(), every_fourth, 2);
  EXPECT_EQ(rv.checked, 16u);
  EXPECT_EQ(rv.mismatched, 0u);
  EXPECT_TRUE(rv.golden_matches);
}

TEST(Reverify, FlagsAWrongVerdict) {
  const Workload& w = *find_workload("bms_guided");
  fault::CampaignConfig cfg = campaign_config(w, 9001);
  cfg.runs = 8;
  fault::ParallelCampaign campaign([&w] { return vps::apps::make_scenario(w.spec); }, cfg);
  fault::CampaignResult result = campaign.run();
  result.records[0].outcome = result.records[0].outcome == fault::Outcome::kTimeout
                                  ? fault::Outcome::kNoEffect
                                  : fault::Outcome::kTimeout;
  const Reverification rv = reverify(w.spec, cfg.seed, campaign.golden(), result.records, 1);
  EXPECT_EQ(rv.checked, 8u);
  EXPECT_EQ(rv.mismatched, 1u);
}

TEST(Workloads, ServedFoldsTheGuidedCampaign) {
  const Workload& guided = *find_workload("bms_guided");
  const Workload& served = *find_workload("bms_served");
  EXPECT_STREQ(guided.spec, served.spec);
  EXPECT_EQ(guided.strategy, served.strategy);
  EXPECT_EQ(guided.runs, served.runs);
  EXPECT_EQ(guided.pinned_digest, served.pinned_digest);
  EXPECT_TRUE(served.served);
  EXPECT_FALSE(guided.served);
}

}  // namespace
