// The benchmark's workloads: model shapes, data, training cadence and the
// serving traffic of each. README.md explains why each workload exists.

#ifndef MICS_PERFBENCH_WORKLOADS_H_
#define MICS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/backend.h"
#include "serve/engine.h"
#include "tensor/tensor.h"
#include "train/dataset.h"
#include "train/model.h"
#include "util/status.h"

namespace perfbench {

constexpr int kWorld = 4;        // ranks of every multi-rank job
constexpr int kGpusPerNode = 2;  // two "nodes" of two ranks each

enum class ModelKind { kTransformer, kWideMlp };

struct Workload {
  std::string name;
  ModelKind model = ModelKind::kTransformer;
  mics::BackendKind backend = mics::BackendKind::kInProcess;

  // Training.
  double train_share = 0.65;  // of --seconds
  int iters_per_round = 4;   // iterations per strategy per round
  int64_t micro_batch = 4;
  int accum_steps = 2;
  int grad_buckets = 1;       // > 1 turns on bucketed gradient overlap
  bool async_comm = false;
  int ckpt_every = 0;         // save a checkpoint every n iterations
  int resume_prep_iters = 0;  // > 0: setup resumes from a checkpoint

  // Serving (serve_bench.cc holds the batching shape all workloads share).
  double serve_share = 0.25;  // of --seconds
  mics::serve::GatherMode serve_gather = mics::serve::GatherMode::kResident;
  double overload_qps = 12500;  // arrival rate of the saturation probes
  // Run shape; the short correctness mode shrinks these.
  double probe_seconds = 0.25;  // one saturation probe
  double chunk_seconds = 0.5;   // one fixed-rate chunk
};

/// Every workload, in BENCHMARK.json order.
const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(const std::string& name);

/// Fresh model of `kind` (parameters unbound).
std::unique_ptr<mics::train::Model> MakeModel(ModelKind kind);

/// Forward FLOPs of one sample, counted in closed form from the model
/// config (multiply-adds of every matrix product, times two).
double ForwardFlopsPerSample(ModelKind kind);

/// Seeded training data; batches are a pure function of (seed, step, rank).
class DataSource {
 public:
  DataSource(ModelKind kind, uint64_t seed);
  mics::Status Sample(int64_t step, int rank, int64_t batch, mics::Tensor* x,
                      std::vector<int32_t>* y) const;

 private:
  ModelKind kind_;
  std::unique_ptr<mics::SyntheticSequenceDataset> seq_;
  std::unique_ptr<mics::SyntheticClassificationDataset> cls_;
};

/// One serving request's input (a single sample), derived from the seed.
mics::Tensor MakeRequestInput(ModelKind kind, uint64_t seed, int64_t index);

}  // namespace perfbench

#endif  // MICS_PERFBENCH_WORKLOADS_H_
