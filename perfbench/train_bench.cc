#include "train_bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>


namespace perfbench {

namespace {

using mics::Status;

const char* const kOps[] = {"all_gather", "reduce_scatter", "all_reduce",
                            "broadcast",  "reduce",         "gather",
                            "scatter",    "all_to_all",     "barrier"};

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Per-iteration series of a layer: call j belongs to iteration
/// j / calls_per_iter; each iteration sums its calls' work (or wait).
std::vector<double> PerIteration(const LayerTimes& t, size_t calls_per_iter,
                                 bool wait) {
  std::vector<double> out;
  if (t.ranks() == 0) return out;
  const size_t n = t.calls() / calls_per_iter;
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = i * calls_per_iter; j < (i + 1) * calls_per_iter; ++j) {
      s += wait ? t.WaitMs(j) : t.WorkMs(j);
    }
    out.push_back(s);
  }
  return out;
}

double DirBytes(const std::string& dir) {
  double total = 0.0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += static_cast<double>(e.file_size());
  }
  return total;
}

}  // namespace

// -- Cluster -----------------------------------------------------------------

mics::Result<std::unique_ptr<Cluster>> Cluster::Create(mics::BackendKind kind,
                                                       LayerTimes* connect) {
  std::unique_ptr<Cluster> c(new Cluster());
  c->kind_ = kind;
  c->connect_ = connect;
  if (kind == mics::BackendKind::kInProcess) return c;

  MICS_ASSIGN_OR_RETURN(c->store_, mics::net::TcpStoreServer::Start());
  c->transports_.resize(kWorld);
  mics::net::TransportOptions opts;
  opts.connect_timeout_ms = 30000;
  opts.recv_timeout_ms = 30000;
  opts.key_prefix = "perfbench";
  Cluster* raw = c.get();
  MICS_RETURN_NOT_OK(mics::RunRanks(kWorld, [&](int rank) -> Status {
    ScopedCall timed(connect, rank);
    MICS_ASSIGN_OR_RETURN(
        raw->transports_[static_cast<size_t>(rank)],
        mics::net::SocketTransport::Connect(raw->store_->addr(), rank, kWorld,
                                            &raw->topo_, opts));
    return Status::OK();
  }));
  return c;
}

Cluster::~Cluster() {
  for (auto& t : transports_) {
    if (t) t->Shutdown();
  }
  transports_.clear();
  if (store_) store_->Stop();
}

mics::Result<mics::CommBackendFactory> Cluster::Factory(int rank,
                                                        mics::World* world) {
  if (kind_ == mics::BackendKind::kInProcess) {
    ScopedCall timed(connect_, rank);
    return mics::CommBackendFactory::InProcess(world, &topo_, rank);
  }
  return mics::CommBackendFactory::Socket(
      transports_[static_cast<size_t>(rank)].get(), &topo_);
}

// -- Traffic -----------------------------------------------------------------

Traffic Traffic::Snapshot() {
  Traffic t;
  t.all_gather = CounterValue("comm.all_gather.bytes");
  t.first_hop = CounterValue("comm.reduce_scatter.bytes") +
                CounterValue("comm.reduce.bytes");
  t.all_reduce = CounterValue("comm.all_reduce.bytes");
  for (const char* op : kOps) {
    const std::string base = std::string("comm.") + op;
    t.bytes += CounterValue(base + ".bytes");
    t.inter_node += CounterValue(base + ".inter_node_bytes");
    t.calls += CounterValue(base + ".calls");
  }
  t.net_frames = CounterValue("net.frames_sent");
  t.net_bytes = CounterValue("net.bytes_sent.intra_node") +
                CounterValue("net.bytes_sent.inter_node");
  return t;
}

Traffic Traffic::Minus(const Traffic& o) const {
  Traffic d;
  d.all_gather = all_gather - o.all_gather;
  d.first_hop = first_hop - o.first_hop;
  d.all_reduce = all_reduce - o.all_reduce;
  d.bytes = bytes - o.bytes;
  d.inter_node = inter_node - o.inter_node;
  d.calls = calls - o.calls;
  d.net_frames = net_frames - o.net_frames;
  d.net_bytes = net_bytes - o.net_bytes;
  return d;
}

void Traffic::Accumulate(const Traffic& o) {
  all_gather += o.all_gather;
  first_hop += o.first_hop;
  all_reduce += o.all_reduce;
  bytes += o.bytes;
  inter_node += o.inter_node;
  calls += o.calls;
  net_frames += o.net_frames;
  net_bytes += o.net_bytes;
}

// -- TrainJob ----------------------------------------------------------------

struct TrainJob::Run {
  std::string name;
  mics::Strategy strategy = mics::Strategy::kDDP;
  int ranks = kWorld;
  mics::RankTopology topo{kWorld, kGpusPerNode};
  std::unique_ptr<mics::World> world;  // in-process communicator registry
  std::vector<std::optional<mics::CommBackendFactory>> factories;
  std::vector<std::unique_ptr<mics::train::Model>> models;
  std::vector<std::unique_ptr<mics::ShardedDataParallel>> engines;
  std::string live_dir;
  std::string resume_dir;

  int64_t next_iter = 0;
  std::vector<std::vector<float>> losses;  // [rank][iteration]
  // Per timed segment (one round of this strategy): process CPU time and
  // wall time.
  std::vector<double> segment_cpu_ms, segment_wall_ms;
  int64_t timed_iters = 0;
  Traffic timed_traffic;
  double ckpt_bytes = 0.0;

  // Per-call layer timers (timed iterations of the traced run only).
  LayerTimes gather, fwd_bwd, reduce, step, loss_sync, save;

  int partition_size() const {
    return strategy == mics::Strategy::kZeRO3 ? ranks
           : strategy == mics::Strategy::kMiCS ? 2
                                                : 1;
  }
  mics::SdpOptions Sdp(const Workload& w) const {
    mics::SdpOptions sdp;
    sdp.strategy = strategy;
    sdp.partition_group_size = partition_size();
    sdp.grad_bucket_count = w.grad_buckets;
    sdp.async_comm = w.async_comm;
    return sdp;
  }
};

TrainJob::~TrainJob() = default;

int TrainJob::num_strategies() const { return static_cast<int>(runs_.size()); }
const std::string& TrainJob::strategy_name(int i) const {
  return runs_[static_cast<size_t>(i)]->name;
}
const std::vector<float>& TrainJob::losses(int i) const {
  return runs_[static_cast<size_t>(i)]->losses[0];
}
int64_t TrainJob::iterations_attempted() const {
  int64_t n = 0;
  for (const auto& r : runs_) n += static_cast<int64_t>(r->losses[0].size());
  return n;
}

mics::Result<std::unique_ptr<TrainJob>> TrainJob::Create(const Workload& w,
                                                         Cluster* cluster,
                                                         const Options& o,
                                                         SetupSinks* sinks) {
  std::unique_ptr<TrainJob> job(new TrainJob());
  job->workload_ = w;
  job->options_ = o;
  job->cluster_ = cluster;
  job->sinks_ = sinks;
  job->data_ = std::make_unique<DataSource>(w.model, o.seed * 7919 + 17);

  struct Spec {
    const char* name;
    mics::Strategy strategy;
    int ranks;
  };
  const Spec specs[] = {{"ddp", mics::Strategy::kDDP, kWorld},
                        {"zero3", mics::Strategy::kZeRO3, kWorld},
                        {"mics", mics::Strategy::kMiCS, kWorld},
                        {"single", mics::Strategy::kDDP, 1}};
  for (const Spec& s : specs) {
    auto run = std::make_unique<Run>();
    run->name = s.name;
    run->strategy = s.strategy;
    run->ranks = s.ranks;
    run->topo = s.ranks == 1 ? mics::RankTopology{1, 1}
                             : mics::RankTopology{kWorld, kGpusPerNode};
    run->world = std::make_unique<mics::World>(s.ranks);
    run->factories.resize(static_cast<size_t>(s.ranks));
    run->models.resize(static_cast<size_t>(s.ranks));
    run->engines.resize(static_cast<size_t>(s.ranks));
    run->losses.resize(static_cast<size_t>(s.ranks));
    for (LayerTimes* t : {&run->gather, &run->fwd_bwd, &run->reduce,
                          &run->step, &run->loss_sync, &run->save}) {
      *t = LayerTimes(o.trace ? s.ranks : 0);
    }
    run->live_dir = o.workdir + "/" + s.name + "/live";
    run->resume_dir = o.workdir + "/" + s.name + "/resume";
    std::error_code ec;
    std::filesystem::create_directories(run->live_dir, ec);
    std::filesystem::create_directories(run->resume_dir, ec);
    job->runs_.push_back(std::move(run));
  }

  // Engines are created SPMD from the rank threads: over sockets, every
  // communicator allocates its channel through the store in call order.
  auto create = [&](Run* run, int rank) -> Status {
    const size_t r = static_cast<size_t>(rank);
    if (run->ranks == 1) {
      MICS_ASSIGN_OR_RETURN(run->factories[r],
                            mics::CommBackendFactory::InProcess(
                                run->world.get(), &run->topo, rank));
    } else {
      MICS_ASSIGN_OR_RETURN(run->factories[r],
                            cluster->Factory(rank, run->world.get()));
    }
    run->models[r] = MakeModel(w.model);
    {
      ScopedCall timed(o.trace ? &sinks->engine_create : nullptr, rank);
      MICS_ASSIGN_OR_RETURN(
          run->engines[r],
          mics::ShardedDataParallel::Create(run->factories[r]->factory(),
                                            run->topo, run->Sdp(w),
                                            run->models[r]->NumParams(), rank));
    }
    MICS_RETURN_NOT_OK(
        run->engines[r]->BindModel(run->models[r].get(), o.seed * 31 + 5));
    if (o.resume) {
      ScopedCall timed(o.trace ? &sinks->ckpt_load : nullptr, rank);
      MICS_RETURN_NOT_OK(run->engines[r]->LoadCheckpoint(run->resume_dir));
    }
    return Status::OK();
  };
  MICS_RETURN_NOT_OK(mics::RunRanks(kWorld, [&](int rank) -> Status {
    for (auto& run : job->runs_) {
      if (run->ranks == kWorld) MICS_RETURN_NOT_OK(create(run.get(), rank));
    }
    return Status::OK();
  }));
  for (auto& run : job->runs_) {
    if (run->ranks == 1) MICS_RETURN_NOT_OK(create(run.get(), 0));
    run->next_iter = run->engines[0]->completed_iterations();
  }
  return job;
}

Status TrainJob::RunIterations(int iters, bool timed, Checks* checks) {
  for (auto& run : runs_) {
    MICS_RETURN_NOT_OK(RunSegment(run.get(), iters, timed, checks));
  }
  return Status::OK();
}

Status TrainJob::RunSegment(Run* run, int iters, bool timed, Checks* checks) {
  const Workload& w = workload_;
  const bool trace = options_.trace && timed;
  auto sink = [&](LayerTimes* t) { return trace ? t : nullptr; };
  const int64_t first = run->next_iter;
  const int s = w.accum_steps;
  const Traffic before = Traffic::Snapshot();
  // Nothing else runs while a segment does (serving sessions and training
  // rounds alternate), so the process's CPU time is the segment's.
  const double cpu0 = ProcessCpuMs();
  const Clock::time_point wall0 = Clock::now();

  MICS_RETURN_NOT_OK(mics::RunRanks(run->ranks, [&](int rank) -> Status {
    const size_t r = static_cast<size_t>(rank);
    mics::ShardedDataParallel* sdp = run->engines[r].get();
    mics::train::Model* model = run->models[r].get();
    for (int i = 0; i < iters; ++i) {
      const int64_t iter = first + i;
      float loss_sum = 0.0f;
      for (int m = 0; m < s; ++m) {
        mics::Tensor x;
        std::vector<int32_t> y;
        MICS_RETURN_NOT_OK(data_->Sample(iter * s + m, rank, w.micro_batch, &x, &y));
        {
          ScopedCall c(sink(&run->gather), rank);
          MICS_RETURN_NOT_OK(sdp->GatherParams());
        }
        float loss = 0.0f;
        {
          ScopedCall c(sink(&run->fwd_bwd), rank);
          MICS_ASSIGN_OR_RETURN(loss, model->ForwardBackward(x, y));
        }
        loss_sum += loss;
        {
          ScopedCall c(sink(&run->reduce), rank);
          MICS_RETURN_NOT_OK(sdp->ReduceMicroStepGrads());
        }
      }
      {
        ScopedCall c(sink(&run->step), rank);
        MICS_RETURN_NOT_OK(sdp->FinishIterationAndStep());
      }
      float loss = loss_sum / static_cast<float>(s);
      {
        ScopedCall c(sink(&run->loss_sync), rank);
        MICS_RETURN_NOT_OK(sdp->AverageScalar(&loss));
      }
      run->losses[r].push_back(loss);
      if (w.ckpt_every > 0 && (iter + 1) % w.ckpt_every == 0) {
        ScopedCall c(sink(&run->save), rank);
        MICS_RETURN_NOT_OK(sdp->SaveCheckpoint(run->live_dir));
      }
    }
    return Status::OK();
  }));
  if (timed) {
    run->segment_cpu_ms.push_back(ProcessCpuMs() - cpu0);
    run->segment_wall_ms.push_back(MsBetween(wall0, Clock::now()));
  }
  run->next_iter += iters;

  // Traffic check against the closed forms of §3 for this strategy.
  const Traffic d = Traffic::Snapshot().Minus(before);
  const double n = static_cast<double>(run->ranks);
  const double p = static_cast<double>(run->partition_size());
  const double rg = n / p;  // replication group size
  const double m_bytes =
      static_cast<double>(run->engines[0]->padded_numel()) * sizeof(float);
  const double per_gather = n * (p - 1.0) / p * m_bytes;
  const double want_ag = s * per_gather;
  const double want_hop1 = s * per_gather;
  const double want_ar = n * 2.0 * (rg - 1.0) / rg * (m_bytes / p) +
                         n * 2.0 * (n - 1.0) / n * sizeof(float);
  const double k = static_cast<double>(iters);
  const std::string tag = w.name + "/" + run->name + " per-iteration ";
  checks->Expect(Near(d.all_gather / k, want_ag),
                 tag + "all-gather bytes " + Fmt(d.all_gather / k) +
                     " != closed form " + Fmt(want_ag));
  checks->Expect(Near(d.first_hop / k, want_hop1),
                 tag + "reduce-scatter bytes " + Fmt(d.first_hop / k) +
                     " != closed form " + Fmt(want_hop1));
  checks->Expect(Near(d.all_reduce / k, want_ar),
                 tag + "all-reduce bytes " + Fmt(d.all_reduce / k) +
                     " != closed form " + Fmt(want_ar));
  const bool on_wire =
      cluster_->kind() == mics::BackendKind::kSocket && run->ranks > 1;
  if (on_wire) {
    const double total = want_ag + want_hop1 + want_ar;
    checks->Expect(d.net_bytes / k >= total,
                   tag + "net payload bytes " + Fmt(d.net_bytes / k) +
                       " below the ring bound " + Fmt(total));
  }
  if (timed) {
    run->timed_iters += iters;
    run->timed_traffic.Accumulate(d);
  }
  return Status::OK();
}

Status TrainJob::SaveResumeCheckpoints() {
  for (auto& run : runs_) {
    MICS_RETURN_NOT_OK(mics::RunRanks(run->ranks, [&](int rank) {
      return run->engines[static_cast<size_t>(rank)]->SaveCheckpoint(
          run->resume_dir);
    }));
  }
  return Status::OK();
}

mics::Result<std::vector<float>> TrainJob::HeldOutLosses() {
  mics::Tensor x;
  std::vector<int32_t> y;
  // A step index far past any training step: data no iteration sees.
  MICS_RETURN_NOT_OK(data_->Sample(int64_t{1} << 40, 0, 256, &x, &y));
  std::vector<float> out;
  for (auto& run : runs_) {
    float loss = 0.0f;
    MICS_RETURN_NOT_OK(mics::RunRanks(run->ranks, [&](int rank) -> Status {
      const size_t r = static_cast<size_t>(rank);
      MICS_RETURN_NOT_OK(run->engines[r]->GatherParams());
      if (rank != 0) return Status::OK();
      MICS_ASSIGN_OR_RETURN(loss, run->models[0]->Loss(x, y));
      return Status::OK();
    }));
    out.push_back(loss);
  }
  return out;
}

Status TrainJob::MarkStart() {
  MICS_ASSIGN_OR_RETURN(start_losses_, HeldOutLosses());
  return Status::OK();
}

void TrainJob::Check(Checks* checks) {
  const std::string& wn = workload_.name;
  // Every rank reports the same (world-averaged) loss.
  for (const auto& run : runs_) {
    for (int r = 1; r < run->ranks; ++r) {
      const auto& a = run->losses[0];
      const auto& b = run->losses[static_cast<size_t>(r)];
      checks->Expect(a.size() == b.size() &&
                         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0,
                     wn + "/" + run->name + ": rank " + std::to_string(r) +
                         " loss differs from rank 0");
    }
  }
  // Sharding does not change the math: DDP, ZeRO-3 and MiCS see the same
  // global batches, so their curves agree up to summation order. Rounding
  // differences compound over a long run (up to 1.2e-3 by iteration 64 and
  // 7e-3 by iteration 400 on the bucketed transformer), so the check
  // covers the first kCurveWindow iterations with room above the former.
  constexpr size_t kCurveWindow = 64;
  constexpr double kCurveTol = 5e-3;
  const auto& ddp = runs_[0]->losses[0];
  for (size_t i = 1; i < 3; ++i) {
    const auto& other = runs_[i]->losses[0];
    double worst = 0.0;
    const size_t n = std::min({ddp.size(), other.size(), kCurveWindow});
    for (size_t t = 0; t < n; ++t) {
      worst = std::max(worst, std::fabs(static_cast<double>(other[t]) - ddp[t]) /
                                  std::max(1.0, std::fabs(static_cast<double>(ddp[t]))));
    }
    checks->Expect(other.size() == ddp.size() && worst <= kCurveTol,
                   wn + "/" + runs_[i]->name + ": loss curve departs from ddp by " +
                       Fmt(worst) + " (tolerance " + Fmt(kCurveTol) + ")");
  }
  // Training makes progress on a held-out batch, and the loss has not
  // collapsed to zero (so the curve checks above compare real numbers).
  auto end = HeldOutLosses();
  checks->ExpectOk(end.status(), wn + ": held-out loss");
  if (end.ok()) {
    for (size_t i = 0; i < runs_.size(); ++i) {
      const float before = i < start_losses_.size() ? start_losses_[i] : 0.0f;
      const float after = end.value()[i];
      std::fprintf(stderr, "perfbench: %s/%s held-out loss %.4f -> %.4f\n",
                   wn.c_str(), runs_[i]->name.c_str(), before, after);
      checks->Expect(after < before, wn + "/" + runs_[i]->name +
                                         ": held-out loss did not fall (" +
                                         Fmt(before) + " -> " + Fmt(after) + ")");
      checks->Expect(after > 0.0f && std::isfinite(after),
                     wn + "/" + runs_[i]->name +
                         ": held-out loss is not a positive number");
    }
  }
  // A checkpoint reloaded into a fresh engine reproduces the live shard.
  for (auto& run : runs_) {
    LayerTimes* save = options_.trace ? &run->save : nullptr;
    Status st = mics::RunRanks(run->ranks, [&](int rank) {
      ScopedCall c(save, rank);
      return run->engines[static_cast<size_t>(rank)]->SaveCheckpoint(run->live_dir);
    });
    checks->ExpectOk(st, wn + "/" + run->name + ": checkpoint save");
    if (!st.ok()) continue;
    run->ckpt_bytes = DirBytes(run->live_dir);
    mics::World fresh_world(run->ranks);
    std::vector<int> same(static_cast<size_t>(run->ranks), 0);
    st = mics::RunRanks(run->ranks, [&](int rank) -> Status {
      const size_t r = static_cast<size_t>(rank);
      std::optional<mics::CommBackendFactory> f;
      if (run->ranks > 1) {
        MICS_ASSIGN_OR_RETURN(f, cluster_->Factory(rank, &fresh_world));
      } else {
        MICS_ASSIGN_OR_RETURN(f, mics::CommBackendFactory::InProcess(
                                     &fresh_world, &run->topo, rank));
      }
      MICS_ASSIGN_OR_RETURN(
          std::unique_ptr<mics::ShardedDataParallel> fresh,
          mics::ShardedDataParallel::Create(f->factory(), run->topo,
                                            run->Sdp(workload_),
                                            run->models[r]->NumParams(), rank));
      {
        ScopedCall c(options_.trace ? &sinks_->ckpt_load : nullptr, rank);
        MICS_RETURN_NOT_OK(fresh->LoadCheckpoint(run->live_dir));
      }
      const mics::Tensor& a = fresh->shard_params();
      const mics::Tensor& b = run->engines[r]->shard_params();
      same[r] = a.numel() == b.numel() &&
                std::memcmp(a.data(), b.data(), static_cast<size_t>(a.nbytes())) == 0;
      return Status::OK();
    });
    checks->ExpectOk(st, wn + "/" + run->name + ": checkpoint reload");
    for (int r = 0; r < run->ranks; ++r) {
      checks->Expect(same[static_cast<size_t>(r)] != 0,
                     wn + "/" + run->name + ": reloaded shard of rank " +
                         std::to_string(r) + " differs from the live shard");
    }
  }
}

void TrainJob::Metrics(double cpu_scale, MetricMap* e2e, MetricMap* layer) const {
  const Workload& w = workload_;
  const size_t s = static_cast<size_t>(w.accum_steps);
  double fwd = 0, gather = 0, gather_wait = 0, reduce = 0, reduce_wait = 0;
  double step = 0, step_wait = 0, loss_sync = 0, gflops = 0, save = 0;
  double ckpt_bytes = 0, bytes = 0, inter = 0, calls = 0, frames = 0, wire = 0;
  double bus_bytes = 0, bus_ms = 0;
  int saves = 0;
  const double nruns = static_cast<double>(runs_.size());
  for (const auto& run : runs_) {
    // Samples per CPU-second per rank: a round's global samples over the
    // fast-tenth round's process CPU time shared out among the ranks, at
    // the reference host speed. A round holds whole checkpoint cadences,
    // so saves are in every one.
    const double samples = static_cast<double>(run->ranks) * s *
                           static_cast<double>(w.micro_batch) * w.iters_per_round;
    const double ranks = static_cast<double>(run->ranks);
    const double cpu_s = Quantile(run->segment_cpu_ms, 0.1) / ranks / 1000.0;
    const double wall_s = Median(run->segment_wall_ms) / 1000.0;
    (*e2e)["train_samples_per_cpu_s." + run->name] = samples / (cpu_s * cpu_scale);
    std::fprintf(stderr,
                 "perfbench: %s/%s %zu timed rounds: %.0f samples per CPU-second per "
                 "rank (%.0f at the reference host speed); wall clock %.0f samples/s "
                 "(median round; rank threads on CPU %.0f%% of it)\n",
                 w.name.c_str(), run->name.c_str(), run->segment_cpu_ms.size(),
                 samples / cpu_s, samples / (cpu_s * cpu_scale), samples / wall_s,
                 100.0 * Median(run->segment_cpu_ms) / ranks / 1000.0 / wall_s);

    const double f = Median(PerIteration(run->fwd_bwd, s, false));
    const double g = Median(PerIteration(run->gather, s, false));
    const double rd = Median(PerIteration(run->reduce, s, false));
    fwd += f / nruns;
    gather += g / nruns;
    gather_wait += Median(PerIteration(run->gather, s, true)) / nruns;
    reduce += rd / nruns;
    reduce_wait += Median(PerIteration(run->reduce, s, true)) / nruns;
    step += Median(PerIteration(run->step, 1, false)) / nruns;
    step_wait += Median(PerIteration(run->step, 1, true)) / nruns;
    loss_sync += Median(PerIteration(run->loss_sync, 1, false)) / nruns;
    if (f > 0.0) {
      const double flops = 3.0 * ForwardFlopsPerSample(w.model) *
                           static_cast<double>(w.micro_batch) * s;
      gflops += flops / (f * 1e6) / nruns;
    }
    std::vector<double> saves_ms;
    for (size_t j = 0; j < run->save.calls(); ++j) saves_ms.push_back(run->save.MeanMs(j));
    if (!saves_ms.empty()) {
      save += Median(saves_ms);
      ++saves;
    }
    ckpt_bytes += run->ckpt_bytes / nruns;
    if (run->timed_iters > 0) {
      const double k = static_cast<double>(run->timed_iters);
      const Traffic& t = run->timed_traffic;
      bytes += t.bytes / k / nruns;
      inter += t.inter_node / k / nruns;
      calls += t.calls / k / nruns;
      frames += t.net_frames / k / nruns;
      wire += t.net_bytes / k / nruns;
      bus_bytes += (t.all_gather + t.first_hop) / k / run->ranks;
      bus_ms += g + rd;
    }
  }
  (*layer)["train.fwd_bwd_ms"] = fwd;
  (*layer)["kernels.fwd_bwd_gflops"] = gflops;
  (*layer)["train.gather_ms"] = gather;
  (*layer)["train.gather_wait_ms"] = gather_wait;
  (*layer)["train.reduce_ms"] = reduce;
  (*layer)["train.reduce_wait_ms"] = reduce_wait;
  (*layer)["train.step_ms"] = step;
  (*layer)["train.step_wait_ms"] = step_wait;
  (*layer)["train.loss_sync_ms"] = loss_sync;
  (*layer)["train.ckpt_save_ms"] = saves > 0 ? save / saves : 0.0;
  (*layer)["train.ckpt_bytes"] = ckpt_bytes;
  (*layer)["comm.bytes_per_iter"] = bytes;
  (*layer)["comm.inter_node_bytes_per_iter"] = inter;
  (*layer)["comm.calls_per_iter"] = calls;
  (*layer)["comm.busbw_gbps"] = bus_ms > 0.0 ? bus_bytes / (bus_ms * 1e6) : 0.0;
  (*layer)["net.frames_per_iter"] = frames;
  (*layer)["net.wire_bytes_per_iter"] = wire;
}

Status PrepareResumeCheckpoints(const Workload& w, uint64_t seed,
                                const std::string& workdir) {
  MICS_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                        Cluster::Create(mics::BackendKind::kInProcess, nullptr));
  TrainJob::Options o;
  o.seed = seed;
  o.workdir = workdir;
  SetupSinks sinks;
  MICS_ASSIGN_OR_RETURN(std::unique_ptr<TrainJob> job,
                        TrainJob::Create(w, cluster.get(), o, &sinks));
  Checks unused;
  MICS_RETURN_NOT_OK(job->RunIterations(w.resume_prep_iters, false, &unused));
  if (!unused.all_passed()) {
    return Status::Internal("resume preparation failed its checks: " +
                            unused.messages().front());
  }
  return job->SaveResumeCheckpoints();
}

}  // namespace perfbench
