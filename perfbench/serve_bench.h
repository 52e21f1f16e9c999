// Serving side of the benchmark: ServeEngine under MiCS p = 2 (two
// replicas of a 4-rank in-process job) in the workload's gather mode, one
// DynamicBatcher per replica, driven by one open-loop request generator.

#ifndef MICS_PERFBENCH_SERVE_BENCH_H_
#define MICS_PERFBENCH_SERVE_BENCH_H_

#include <memory>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "serve/engine.h"
#include "train_bench.h"
#include "workloads.h"

namespace perfbench {

class ServeJob {
 public:
  static mics::Result<std::unique_ptr<ServeJob>> Create(const Workload& w,
                                                        uint64_t seed,
                                                        SetupSinks* sinks,
                                                        bool trace);
  ~ServeJob();

  /// One serving chunk of the timed loop, interleaved with training
  /// rounds. Chunks alternate between the fixed arrival rate (latency, the
  /// per-layer serve.* figures) and a saturation probe (the process CPU
  /// time per request at full batches, and the completion rate).
  mics::Status RunChunk();
  /// Replays every answered request through an unsharded, unbatched copy
  /// of the model and compares predictions.
  void Check(Checks* checks);
  /// `cpu_scale` converts this run's CPU times to the reference host
  /// speed (main.cc).
  void Metrics(double cpu_scale, MetricMap* end_to_end, MetricMap* per_layer) const;

  int64_t requests_attempted() const { return attempted_; }
  int64_t requests_failed() const { return failed_; }

  /// One request as the generator and its collector saw it.
  struct Request {
    int64_t index = 0;
    double due_ms = 0, sent_ms = 0, done_ms = 0;  // since session start
    double queue_wait_ms = 0;
    int64_t batch_samples = 0;
    int32_t prediction = -1;
    bool ok = false;
  };
  struct Session {
    std::vector<Request> requests;
    double gathers = 0, batches = 0;  // counter deltas
    double cpu_us_per_request = 0;    // process CPU time over the same span
    /// Completions per second between the 10th and 90th percentile
    /// request (the span), and that rate over the arrival rate of the span:
    /// below 1 the queue grew while the probe ran.
    double Throughput() const;
    double KeepUp() const;
  };

 private:
  ServeJob() = default;
  mics::Result<Session> RunSession(double rate, int64_t n);

  Workload workload_;
  mics::RankTopology topo_{kWorld, kGpusPerNode};
  uint64_t weight_seed_ = 0;
  uint64_t input_seed_ = 0;
  std::unique_ptr<mics::World> world_;
  std::vector<std::optional<mics::CommBackendFactory>> factories_;
  std::vector<std::unique_ptr<mics::train::Model>> models_;
  std::vector<std::unique_ptr<mics::serve::ServeEngine>> engines_;

  int64_t next_index_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Request> answered_;  // every answered request, for Check

  int chunks_ = 0;
  std::vector<Session> fixed_;      // fixed-rate chunks
  // Per saturation probe: completion rate, keep-up and CPU time per request.
  std::vector<double> overload_qps_, overload_keep_up_, overload_cpu_us_;
};

}  // namespace perfbench

#endif  // MICS_PERFBENCH_SERVE_BENCH_H_
