// Shared plumbing of the repository benchmark: clocks, order statistics,
// per-call layer timers and the correctness-check ledger. Everything here
// lives outside the mics library on purpose: the benchmark times the
// library's public calls from the caller's side.

#ifndef MICS_PERFBENCH_BENCH_UTIL_H_
#define MICS_PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Durations of the calls one layer received, per rank and in call order.
/// Rank threads run the same call sequence (SPMD), so call j on every rank
/// is the same logical operation; the aggregates below pair them up.
class LayerTimes {
 public:
  explicit LayerTimes(int ranks = 0) : per_rank_(static_cast<size_t>(ranks)) {}

  void Add(int rank, double ms) { per_rank_[static_cast<size_t>(rank)].push_back(ms); }
  int ranks() const { return static_cast<int>(per_rank_.size()); }
  size_t calls() const {
    size_t n = per_rank_.empty() ? 0 : per_rank_[0].size();
    for (const auto& r : per_rank_) n = std::min(n, r.size());
    return n;
  }

  /// Call j's work: the fastest rank's time (a collective's slower ranks
  /// spent the difference waiting for their peers).
  double WorkMs(size_t j) const {
    double m = per_rank_[0][j];
    for (const auto& r : per_rank_) m = std::min(m, r[j]);
    return m;
  }
  /// Call j's wait: mean over ranks minus the work.
  double WaitMs(size_t j) const {
    double s = 0.0;
    for (const auto& r : per_rank_) s += r[j];
    return s / static_cast<double>(per_rank_.size()) - WorkMs(j);
  }
  /// Call j's mean over ranks (for calls that do not synchronize ranks).
  double MeanMs(size_t j) const { return WaitMs(j) + WorkMs(j); }

  /// Every recorded call of every rank, unpaired (setup calls, which
  /// different jobs issue from different numbers of ranks).
  std::vector<double> AllMs() const {
    std::vector<double> all;
    for (const auto& r : per_rank_) all.insert(all.end(), r.begin(), r.end());
    return all;
  }

 private:
  std::vector<std::vector<double>> per_rank_;
};

/// Times one call when a LayerTimes sink is given; costs nothing otherwise.
class ScopedCall {
 public:
  ScopedCall(LayerTimes* sink, int rank)
      : sink_(sink), rank_(rank), start_(sink ? Clock::now() : Clock::time_point()) {}
  ~ScopedCall() {
    if (sink_ != nullptr) sink_->Add(rank_, MsBetween(start_, Clock::now()));
  }
  ScopedCall(const ScopedCall&) = delete;
  ScopedCall& operator=(const ScopedCall&) = delete;

 private:
  LayerTimes* sink_;
  int rank_;
  Clock::time_point start_;
};

/// The run's correctness ledger: every check is counted, and the first
/// few failures are kept with their message.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++total_;
    if (!ok) {
      ++failed_;
      if (messages_.size() < 20) messages_.push_back(what);
    }
  }
  void ExpectOk(const mics::Status& st, const std::string& what) {
    Expect(st.ok(), what + ": " + st.ToString());
  }
  bool all_passed() const { return failed_ == 0; }
  int64_t total() const { return total_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::mutex mu_;
  int64_t total_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// CPU time of the whole process so far (every thread, user and system),
/// in ms. The guest kernel leaves out the time the hypervisor ran other
/// guests on this VM's CPUs (steal), which on a shared host stalls rank
/// threads for milliseconds at a time and moves wall-clock figures of a
/// 4-rank job by up to 2x between runs; the throughputs are taken from
/// this clock instead.
double ProcessCpuMs();

/// Named metric values of one run, in name order.
using MetricMap = std::map<std::string, double>;

/// Process-wide counter value from the mics metrics registry.
double CounterValue(const std::string& name);

/// Bytes the kernel reports as this process's peak resident set.
double PeakRssBytes();

/// Terminates the run with `st` unless it is OK (operations whose failure
/// leaves the SPMD job unrecoverable).
void DieUnlessOk(const mics::Status& st, const std::string& what);

}  // namespace perfbench

#endif  // MICS_PERFBENCH_BENCH_UTIL_H_
