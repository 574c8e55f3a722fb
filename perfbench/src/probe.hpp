// Benchmark-side instruments: a steady clock, a span log, a timing
// decorator for snapshot producers, and small statistics helpers.
//
// Everything here lives outside the program under test. The spans are
// recorded around the public calls the benchmark makes, so the per-layer
// numbers do not depend on the program's own instrumentation.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "flow/producer.hpp"

namespace perfbench {

/// Seconds on std::chrono::steady_clock since an arbitrary epoch.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed interval recorded by a Span.
struct SpanRecord {
  std::string name;
  std::uint64_t case_id = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Thread-safe, in-memory list of spans. A null log makes Span inert.
class SpanLog {
 public:
  void add(SpanRecord rec);
  [[nodiscard]] std::vector<SpanRecord> records() const;

  /// Total duration of the spans called `name` that belong to `case_id`.
  [[nodiscard]] double total(const std::string& name,
                             std::uint64_t case_id) const;
  /// Seconds of [from, to] covered by the union of `case_id`'s spans,
  /// leaving out the spans named `except` (the enclosing case span).
  [[nodiscard]] double covered(std::uint64_t case_id, double from, double to,
                               const std::string& except) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
};

/// RAII span: records [construction, destruction) into `log` when the log
/// is not null.
class Span {
 public:
  Span(SpanLog* log, std::string name, std::uint64_t case_id)
      : log_(log), name_(std::move(name)), case_id_(case_id),
        start_(log != nullptr ? now_s() : 0.0) {}
  ~Span() {
    if (log_ != nullptr) log_->add({name_, case_id_, start_, now_s()});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::string name_;
  std::uint64_t case_id_;
  double start_;
};

/// SnapshotProducer decorator: forwards every call to the wrapped
/// producer and times next(). With a span log it also records one
/// `flow.next` span per call.
class TimedProducer final : public sickle::flow::SnapshotProducer {
 public:
  TimedProducer(std::unique_ptr<sickle::flow::SnapshotProducer> inner,
                SpanLog* log = nullptr, std::uint64_t case_id = 0)
      : inner_(std::move(inner)), log_(log), case_id_(case_id) {}

  [[nodiscard]] std::size_t num_snapshots() const override {
    return inner_->num_snapshots();
  }
  [[nodiscard]] std::optional<sickle::field::Snapshot> next() override;
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::vector<double> scalar_target() const override {
    return inner_->scalar_target();
  }

  /// Seconds spent inside next(), and the snapshots it returned.
  [[nodiscard]] double next_seconds() const noexcept { return seconds_; }
  [[nodiscard]] std::size_t snapshots() const noexcept { return produced_; }

 private:
  std::unique_ptr<sickle::flow::SnapshotProducer> inner_;
  SpanLog* log_;
  std::uint64_t case_id_;
  double seconds_ = 0.0;
  std::size_t produced_ = 0;
};

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile, p in (0, 1]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Peak resident set size of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Difference of two MetricsRegistry snapshots for one key.
[[nodiscard]] double delta(const std::map<std::string, double>& before,
                           const std::map<std::string, double>& after,
                           const std::string& key);

constexpr double kMB = 1024.0 * 1024.0;

}  // namespace perfbench
