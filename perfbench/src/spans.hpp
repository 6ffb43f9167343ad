#pragma once

/// In-memory span recorder of the benchmark. Every span is timed from
/// outside the vps libraries (around the calls into a layer), kept in memory
/// while the run executes and written as JSON lines when it ends, so the
/// recorder never does I/O on a measured path.
///
/// Span tree: workload → setup | campaign → batch → replay, plus golden,
/// warm, codec and probe spans. Replays are recorded while their batch is
/// still open; the barrier that closes the batch adopts them (close_batch).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds since the first call in this process.
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
[[nodiscard]] inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// User plus system CPU seconds of the whole process so far.
[[nodiscard]] double process_cpu_s();

/// Small dense index of the calling thread (0 = first thread that asked).
[[nodiscard]] std::uint32_t thread_index();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root; kPending = replay awaiting its batch
  std::string name;
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Name-specific detail: the injection eighth (0..7) of a replay, the
  /// record count of a codec span, the run count of a campaign or batch.
  std::int64_t arg = -1;
};

class SpanLog {
 public:
  static constexpr std::uint64_t kPending = ~std::uint64_t{0};

  explicit SpanLog(std::uint64_t run_id) : run_id_(run_id) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Reserves an id for a span that is recorded later (a parent that must
  /// be known before its children finish).
  [[nodiscard]] std::uint64_t reserve() noexcept { return next_id_.fetch_add(1); }

  /// Records a finished span on the calling thread; returns its id (the
  /// reserved one when `id` is nonzero).
  std::uint64_t add(const std::string& name, std::uint64_t parent, std::int64_t start_ns,
                    std::int64_t end_ns, std::int64_t arg = -1, std::uint64_t id = 0);

  /// Closes the open batch at a barrier: every pending span recorded since
  /// the previous close is reparented onto a new "batch" span under
  /// `campaign`, which runs from the first pending start to `barrier_ns`.
  /// Returns the batch id (0 when no span was pending).
  std::uint64_t close_batch(std::uint64_t campaign, std::int64_t barrier_ns);

  [[nodiscard]] std::vector<Span> spans() const;
  /// One JSON object per line; every line carries the run id.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  const std::uint64_t run_id_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;        // guarded by mutex_
  std::size_t pending_from_ = 0;   // guarded by mutex_
};

}  // namespace perfbench
