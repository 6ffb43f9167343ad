#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include <sys/resource.h>

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch)
      .count();
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::uint64_t SpanLog::add(const std::string& name, std::uint64_t parent, std::int64_t start_ns,
                           std::int64_t end_ns, std::int64_t arg, std::uint64_t id) {
  if (id == 0) id = reserve();
  Span span{id, parent, name, thread_index(), start_ns, end_ns, arg};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return id;
}

std::uint64_t SpanLog::close_batch(std::uint64_t campaign, std::int64_t barrier_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t first = barrier_ns;
  std::int64_t count = 0;
  const std::uint64_t batch = next_id_.fetch_add(1);
  for (std::size_t i = pending_from_; i < spans_.size(); ++i) {
    if (spans_[i].parent != kPending) continue;
    spans_[i].parent = batch;
    first = std::min(first, spans_[i].start_ns);
    ++count;
  }
  pending_from_ = spans_.size();
  if (count == 0) return 0;
  spans_.push_back(Span{batch, campaign, "batch", thread_index(), first, barrier_ns, count});
  pending_from_ = spans_.size();
  return batch;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string SpanLog::to_jsonl() const {
  std::string out;
  char line[256];
  for (const Span& s : spans()) {
    std::snprintf(line, sizeof line,
                  "{\"run\":\"%016llx\",\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                  "\"thread\":%u,\"start_ns\":%lld,\"end_ns\":%lld,\"arg\":%lld}\n",
                  static_cast<unsigned long long>(run_id_), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.name.c_str(), s.thread,
                  static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                  static_cast<long long>(s.arg));
    out += line;
  }
  return out;
}

}  // namespace perfbench
