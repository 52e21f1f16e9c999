// Training side of the benchmark: a 4-rank job run as rank threads of this
// process under DDP, ZeRO-3 and MiCS, plus the single-rank baseline, all
// driven call by call through ShardedDataParallel's public protocol so
// every layer call can be timed from outside.

#ifndef MICS_PERFBENCH_TRAIN_BENCH_H_
#define MICS_PERFBENCH_TRAIN_BENCH_H_

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "comm/topology.h"
#include "comm/world.h"
#include "core/mics_config.h"
#include "net/backend.h"
#include "net/tcp_store.h"
#include "net/transport.h"
#include "train/sharded_data_parallel.h"
#include "workloads.h"

namespace perfbench {

/// The ranks' communication substrate. In-process jobs need nothing up
/// front (each engine group gets its own World); socket jobs start one
/// TcpStoreServer and connect a full localhost TCP mesh, one
/// SocketTransport per rank thread, shared by every engine of the job.
class Cluster {
 public:
  /// `connect` (nullable, must outlive the cluster) receives each rank's
  /// connect time: SocketTransport::Connect over sockets, binding a rank
  /// to its World in-process.
  static mics::Result<std::unique_ptr<Cluster>> Create(mics::BackendKind kind,
                                                       LayerTimes* connect);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  mics::BackendKind kind() const { return kind_; }
  const mics::RankTopology& topo() const { return topo_; }

  /// Communicator factory for `rank` of the 4-rank job: over `world`
  /// in-process, over the rank's transport for sockets.
  mics::Result<mics::CommBackendFactory> Factory(int rank, mics::World* world);

 private:
  Cluster() = default;

  mics::BackendKind kind_ = mics::BackendKind::kInProcess;
  mics::RankTopology topo_{kWorld, kGpusPerNode};
  LayerTimes* connect_ = nullptr;
  std::unique_ptr<mics::net::TcpStoreServer> store_;
  std::vector<std::unique_ptr<mics::net::SocketTransport>> transports_;
};

/// Per-call timers for setup calls; they outlive each setup repetition.
struct SetupSinks {
  LayerTimes connect{kWorld};
  LayerTimes engine_create{kWorld};
  LayerTimes ckpt_load{kWorld};
  LayerTimes serve_load{kWorld};
};

/// Per-iteration traffic counted by the comm.* and net.* counters.
struct Traffic {
  double all_gather = 0, first_hop = 0, all_reduce = 0, bytes = 0;
  double inter_node = 0, calls = 0, net_frames = 0, net_bytes = 0;

  static Traffic Snapshot();
  Traffic Minus(const Traffic& o) const;
  void Accumulate(const Traffic& o);
};

class TrainJob {
 public:
  struct Options {
    uint64_t seed = 1;
    bool trace = false;
    std::string workdir;  // checkpoint directories live below it
    bool resume = false;  // load the resume checkpoints during setup
  };

  static mics::Result<std::unique_ptr<TrainJob>> Create(const Workload& w,
                                                        Cluster* cluster,
                                                        const Options& o,
                                                        SetupSinks* sinks);
  ~TrainJob();

  /// Runs `iters` iterations of every strategy, one strategy after the
  /// other. Untimed rounds are checked but stay out of every metric.
  mics::Status RunIterations(int iters, bool timed, Checks* checks);
  /// Saves every strategy's checkpoint into its resume directory.
  mics::Status SaveResumeCheckpoints();
  /// Records every strategy's loss on a fixed held-out batch; Check
  /// compares the end of the run against it.
  mics::Status MarkStart();

  /// End-of-run checks: rank agreement, curve agreement, falling held-out
  /// loss and checkpoint round trips.
  void Check(Checks* checks);
  /// `cpu_scale` converts this run's CPU times to the reference host
  /// speed (main.cc).
  void Metrics(double cpu_scale, MetricMap* end_to_end, MetricMap* per_layer) const;

  int num_strategies() const;
  const std::string& strategy_name(int i) const;
  /// Rank 0's loss per iteration of strategy `i`.
  const std::vector<float>& losses(int i) const;
  int64_t iterations_attempted() const;

  struct Run;

 private:
  TrainJob() = default;

  mics::Status RunSegment(Run* run, int iters, bool timed, Checks* checks);
  /// Loss of each strategy's current weights on the held-out batch.
  mics::Result<std::vector<float>> HeldOutLosses();

  Workload workload_;
  Options options_;
  Cluster* cluster_ = nullptr;
  std::unique_ptr<DataSource> data_;
  std::vector<std::unique_ptr<Run>> runs_;
  SetupSinks* sinks_ = nullptr;
  std::vector<float> start_losses_;
};

/// Writes the checkpoints the socket workload resumes from: a short
/// in-process run of every strategy, saved under `workdir`.
mics::Status PrepareResumeCheckpoints(const Workload& w, uint64_t seed,
                                      const std::string& workdir);

}  // namespace perfbench

#endif  // MICS_PERFBENCH_TRAIN_BENCH_H_
