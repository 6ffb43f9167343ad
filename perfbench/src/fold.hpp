#pragma once

/// Fold correctness: a digest of a campaign's fold, and re-verification of
/// folded runs against full (non-forked) replays.
///
/// The digest is a CRC-32 over the codec-encoded records in run order (the
/// checkpoint's record lines, byte for byte), the outcome counts and the
/// bit patterns of the coverage curve. Two folds with equal digests agree
/// on every verdict, every descriptor and every coverage step.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vps/fault/campaign.hpp"

namespace perfbench {

/// Record lines "{"kind":"record",...}" through fault::codec::append_record.
[[nodiscard]] std::vector<std::string> encode_records(
    const std::vector<vps::fault::RunRecord>& records);
/// Inverse of encode_records through fault::codec::record_from.
[[nodiscard]] std::vector<vps::fault::RunRecord> decode_records(
    const std::vector<std::string>& lines);

/// `record_lines` must be encode_records(result.records).
[[nodiscard]] std::uint32_t fold_digest(const vps::fault::CampaignResult& result,
                                        const std::vector<std::string>& record_lines);

/// Records that differ between two encoded folds; a record present on one
/// side only counts as differing.
[[nodiscard]] std::size_t differing_records(const std::vector<std::string>& a,
                                            const std::vector<std::string>& b);

struct Reverification {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  bool golden_matches = false;  ///< full golden run equals the campaign's golden
};

/// Replays every record on fresh scenarios built from `spec` with snapshot
/// replay off (`threads` threads, one scenario each) and compares each
/// classified outcome with the folded one — the snapshot-equivalence
/// contract, checked on the benchmark's own fold.
[[nodiscard]] Reverification reverify(const std::string& spec, std::uint64_t seed,
                                      const vps::fault::Observation& golden,
                                      const std::vector<vps::fault::RunRecord>& records,
                                      std::size_t threads);

}  // namespace perfbench
