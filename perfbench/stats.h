// Statistics helpers of the benchmark: nearest-rank percentiles that are
// reported only when the sample supports them, the geometric mean, and
// open-loop load-generator bookkeeping. Header-only; perfbench_stats_test
// covers every function. Quartiles over repeated runs are spread.py's.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A sample sorted once at construction, so any number of percentile
/// queries cost no further sorting.
class Distribution {
 public:
  explicit Distribution(std::vector<double> values) : v_(std::move(values)) {
    std::sort(v_.begin(), v_.end());
  }

  /// 1-based nearest rank of percentile q in (0, 1]: ceil(q * n).
  size_t Rank(double q) const {
    double r = std::ceil(q * static_cast<double>(v_.size()) - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1,
                              std::max<size_t>(v_.size(), 1));
  }

  /// Nearest-rank percentile: the smallest value with at least q * n
  /// values at or below it. Requires a non-empty sample.
  double Percentile(double q) const { return v_[Rank(q) - 1]; }

  /// Samples that lie strictly beyond the nearest-rank position of q.
  size_t Beyond(double q) const { return v_.size() - Rank(q); }

  /// The percentile, or nothing when fewer than `min_beyond` samples lie
  /// beyond it — a tail the sample cannot resolve is not reported.
  std::optional<double> Supported(double q, size_t min_beyond = 10) const {
    if (v_.empty() || Beyond(q) < min_beyond) return std::nullopt;
    return Percentile(q);
  }

  double Median() const { return Percentile(0.5); }

 private:
  std::vector<double> v_;
};

/// Geometric mean of strictly positive values (0 for an empty input).
inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double x : values) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Bookkeeping of an open-loop run: each request has the time it was due,
/// the time the generator actually sent it, and the time it completed
/// (seconds on one clock). Latency counts from the due time, so a stall
/// charges every request that had to wait behind it.
class OpenLoopLedger {
 public:
  struct Request {
    double due = 0;
    double sent = 0;
    double done = 0;
  };

  void Add(double due, double sent, double done) {
    requests_.push_back({due, sent, done});
  }

  /// Completion minus due time of every request.
  std::vector<double> LatenciesFromDue() const {
    std::vector<double> out;
    out.reserve(requests_.size());
    for (const Request& r : requests_) out.push_back(r.done - r.due);
    return out;
  }

  /// How late the generator sent each request (sent minus due, >= 0).
  std::vector<double> Lateness() const {
    std::vector<double> out;
    out.reserve(requests_.size());
    for (const Request& r : requests_) {
      out.push_back(std::max(0.0, r.sent - r.due));
    }
    return out;
  }

  /// Backlog seen at each due instant, in due order: requests due by then
  /// that had not completed yet.
  std::vector<double> BacklogAtDue() const {
    std::vector<double> due, done;
    for (const Request& r : requests_) {
      due.push_back(r.due);
      done.push_back(r.done);
    }
    std::sort(due.begin(), due.end());
    std::sort(done.begin(), done.end());
    std::vector<double> out;
    out.reserve(due.size());
    for (size_t i = 0; i < due.size(); ++i) {
      size_t arrived = static_cast<size_t>(
          std::upper_bound(due.begin(), due.end(), due[i]) - due.begin());
      size_t finished = static_cast<size_t>(
          std::upper_bound(done.begin(), done.end(), due[i]) - done.begin());
      out.push_back(static_cast<double>(arrived - std::min(arrived, finished)));
    }
    return out;
  }

  /// True when the backlog grew over the run, i.e. the offered rate was
  /// beyond what the system sustained: the mean backlog of the last
  /// quarter of due instants exceeds twice that of the first quarter plus
  /// two requests. Such a run measures a queue, not the system, and is
  /// flagged invalid.
  bool BacklogGrows() const {
    std::vector<double> b = BacklogAtDue();
    size_t quarter = b.size() / 4;
    if (quarter == 0) return false;
    double first = 0, last = 0;
    for (size_t i = 0; i < quarter; ++i) {
      first += b[i];
      last += b[b.size() - quarter + i];
    }
    first /= static_cast<double>(quarter);
    last /= static_cast<double>(quarter);
    return last > 2 * first + 2;
  }

 private:
  std::vector<Request> requests_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
