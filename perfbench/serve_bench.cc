#include "serve_bench.h"

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <thread>

#include "serve/batcher.h"
#include "util/random.h"

namespace perfbench {

namespace {

using mics::Status;
using mics::serve::DynamicBatcher;
using mics::serve::ReplyFuture;

constexpr int kPartition = 2;  // MiCS p = 2: two replicas of two ranks
constexpr int kReplicas = kWorld / kPartition;
// The arrival rate of serve_p50_ms: 11-17% of each workload's capacity on
// the reference host, so queues stay short.
constexpr double kFixedRateQps = 1000.0;
constexpr int64_t kMaxBatchSamples = 8;
constexpr int64_t kMaxWaitUs = 1000;
// A probe whose completions trail its arrivals by more than this share
// has a growing backlog.
constexpr double kKeepUp = 0.97;

double LatencyMs(const ServeJob::Request& r) {
  return r.ok ? r.done_ms - r.due_ms : std::numeric_limits<double>::infinity();
}

}  // namespace

double ServeJob::Session::Throughput() const {
  const size_t a = requests.size() / 10;
  const size_t b = requests.size() - 1 - a;
  const double span = requests[b].done_ms - requests[a].done_ms;
  return span > 0.0 ? static_cast<double>(b - a) / span * 1000.0 : 0.0;
}

double ServeJob::Session::KeepUp() const {
  const size_t a = requests.size() / 10;
  const size_t b = requests.size() - 1 - a;
  const double due_span = requests[b].due_ms - requests[a].due_ms;
  const double done_span = requests[b].done_ms - requests[a].done_ms;
  return done_span > 0.0 ? due_span / done_span : 0.0;
}

ServeJob::~ServeJob() = default;

mics::Result<std::unique_ptr<ServeJob>> ServeJob::Create(const Workload& w,
                                                         uint64_t seed,
                                                         SetupSinks* sinks,
                                                         bool trace) {
  std::unique_ptr<ServeJob> job(new ServeJob());
  job->workload_ = w;
  job->weight_seed_ = seed * 131 + 7;
  job->input_seed_ = seed * 977 + 3;
  job->world_ = std::make_unique<mics::World>(kWorld);
  job->factories_.resize(kWorld);
  job->models_.resize(kWorld);
  job->engines_.resize(kWorld);
  ServeJob* raw = job.get();
  MICS_RETURN_NOT_OK(mics::RunRanks(kWorld, [&](int rank) -> Status {
    const size_t r = static_cast<size_t>(rank);
    MICS_ASSIGN_OR_RETURN(raw->factories_[r],
                          mics::CommBackendFactory::InProcess(raw->world_.get(),
                                                              &raw->topo_, rank));
    raw->models_[r] = MakeModel(w.model);
    mics::serve::ServeOptions o;
    o.strategy = mics::serve::Strategy::kMiCS;
    o.partition_group_size = kPartition;
    o.gather_mode = w.serve_gather;
    ScopedCall timed(trace ? &sinks->serve_load : nullptr, rank);
    MICS_ASSIGN_OR_RETURN(
        raw->engines_[r],
        mics::serve::ServeEngine::Create(raw->factories_[r]->factory(),
                                         raw->topo_, o,
                                         raw->models_[r].get(), rank));
    return raw->engines_[r]->LoadParameters(raw->weight_seed_);
  }));
  return job;
}

mics::Result<ServeJob::Session> ServeJob::RunSession(double rate, int64_t n) {
  Session session;
  session.requests.resize(static_cast<size_t>(n));
  const int64_t first = next_index_;
  next_index_ += n;
  const int64_t sample_numel = models_[0]->sample_numel();
  std::vector<mics::Tensor> inputs;
  inputs.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    inputs.push_back(MakeRequestInput(workload_.model, input_seed_, first + i));
  }

  std::vector<std::unique_ptr<DynamicBatcher>> batchers;
  for (int k = 0; k < kReplicas; ++k) {
    mics::serve::BatcherOptions bo;
    bo.max_batch_samples = kMaxBatchSamples;
    bo.max_wait_us = kMaxWaitUs;
    MICS_ASSIGN_OR_RETURN(std::unique_ptr<DynamicBatcher> b,
                          DynamicBatcher::Create(bo));
    batchers.push_back(std::move(b));
  }
  const double gathers0 = CounterValue("train.gather.gathers_issued");
  const double batches0 = CounterValue("serve.engine.batches");

  Status serve_status = Status::OK();
  std::thread servers([&] {
    serve_status = mics::RunRanks(kWorld, [&](int rank) -> Status {
      mics::serve::ServeEngine* e = engines_[static_cast<size_t>(rank)].get();
      if (!e->is_driver()) return e->FollowerLoop();
      return e->DriverLoop(batchers[static_cast<size_t>(rank / kPartition)].get());
    });
  });

  // Futures are handed to one collector per replica; a replica answers
  // in admission order, so each collector waits its requests in order.
  std::vector<ReplyFuture> futures(static_cast<size_t>(n));
  std::mutex mu;
  std::condition_variable cv;
  int64_t submitted = 0;
  // Process CPU time when the requests that bound Throughput()'s span
  // complete: the span leaves out the ramp-up, the drain and the session's
  // thread start and stop.
  const int64_t span_first = n / 10;
  const int64_t span_last = n - 1 - span_first;
  double cpu_first = 0.0, cpu_last = 0.0;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto since = [t0](Clock::time_point t) { return MsBetween(t0, t); };

  std::vector<std::thread> collectors;
  for (int k = 0; k < kReplicas; ++k) {
    collectors.emplace_back([&, k] {
      for (int64_t i = k; i < n; i += kReplicas) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return submitted > i; });
        }
        Request& req = session.requests[static_cast<size_t>(i)];
        if (!futures[static_cast<size_t>(i)].valid()) continue;
        auto reply = futures[static_cast<size_t>(i)].Wait();
        req.done_ms = since(Clock::now());
        if (i == span_first) cpu_first = ProcessCpuMs();
        if (i == span_last) cpu_last = ProcessCpuMs();
        if (!reply.ok()) continue;
        const mics::serve::ServeReply& rep = reply.value();
        req.queue_wait_ms = rep.queue_wait_us / 1000.0;
        req.batch_samples = rep.batch_samples;
        // Well-formed reply: one probability row summing to 1 whose
        // argmax is the reported prediction.
        const float* row = rep.scores.f32();
        const int64_t classes = rep.scores.numel();
        double sum = 0.0;
        int64_t arg = 0;
        for (int64_t c = 0; c < classes; ++c) {
          sum += row[c];
          if (row[c] > row[arg]) arg = c;
        }
        req.prediction = rep.predictions.size() == 1 ? rep.predictions[0] : -1;
        req.ok = std::fabs(sum - 1.0) <= 1e-5 && req.prediction == arg;
      }
    });
  }

  for (int64_t i = 0; i < n; ++i) {
    Request& req = session.requests[static_cast<size_t>(i)];
    req.index = first + i;
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(i) / rate));
    std::this_thread::sleep_until(due);
    req.due_ms = since(due);
    req.sent_ms = since(Clock::now());
    auto f = batchers[static_cast<size_t>(i % kReplicas)]->Submit(
        inputs[static_cast<size_t>(i)], sample_numel);
    {
      std::lock_guard<std::mutex> lock(mu);
      if (f.ok()) futures[static_cast<size_t>(i)] = f.value();
      submitted = i + 1;
    }
    cv.notify_all();
  }
  for (std::thread& c : collectors) c.join();
  for (auto& b : batchers) b->Shutdown();
  servers.join();
  MICS_RETURN_NOT_OK(serve_status);

  session.cpu_us_per_request = (cpu_last - cpu_first) * 1000.0 /
                               static_cast<double>(span_last - span_first);
  session.gathers = CounterValue("train.gather.gathers_issued") - gathers0;
  session.batches = CounterValue("serve.engine.batches") - batches0;
  for (const Request& r : session.requests) {
    ++attempted_;
    if (r.ok) {
      answered_.push_back(r);
    } else {
      ++failed_;
    }
  }
  return session;
}

Status ServeJob::RunChunk() {
  // Fixed-rate chunks alternate with saturation probes: arrivals at the
  // workload's overload rate, well past what the program can carry, so
  // the completion rate is its service capacity.
  const bool overload = chunks_ % 2 == 1;
  ++chunks_;
  if (overload) {
    const double rate = workload_.overload_qps;
    const int64_t n = static_cast<int64_t>(rate * workload_.probe_seconds);
    MICS_ASSIGN_OR_RETURN(Session s, RunSession(rate, n));
    overload_qps_.push_back(s.Throughput());
    overload_keep_up_.push_back(s.KeepUp());
    overload_cpu_us_.push_back(s.cpu_us_per_request);
    return Status::OK();
  }
  const double rate = kFixedRateQps;
  const int64_t n = static_cast<int64_t>(rate * workload_.chunk_seconds);
  MICS_ASSIGN_OR_RETURN(Session s, RunSession(rate, n));
  fixed_.push_back(std::move(s));
  return Status::OK();
}

void ServeJob::Check(Checks* checks) {
  // The reference: an unsharded model with weights from the same seed, one
  // sample per forward. The replay is split over kWorld threads, each with
  // its own copy of the model.
  std::vector<int64_t> mismatches(kWorld, 0);
  Status st = mics::RunRanks(kWorld, [&](int t) -> Status {
    std::unique_ptr<mics::train::Model> ref = MakeModel(workload_.model);
    mics::Tensor params({ref->NumParams()}, mics::DType::kF32);
    MICS_RETURN_NOT_OK(ref->BindParameters(&params, nullptr));
    mics::Rng rng(weight_seed_);
    MICS_RETURN_NOT_OK(ref->InitParameters(&rng));
    for (size_t i = static_cast<size_t>(t); i < answered_.size(); i += kWorld) {
      const Request& r = answered_[i];
      auto pred = ref->Predict(MakeRequestInput(workload_.model, input_seed_, r.index));
      if (!pred.ok() || pred.value().size() != 1 || pred.value()[0] != r.prediction) {
        ++mismatches[static_cast<size_t>(t)];
      }
    }
    return Status::OK();
  });
  checks->ExpectOk(st, workload_.name + ": unsharded reference replay");
  int64_t total = 0;
  for (int64_t m : mismatches) total += m;
  checks->Expect(total == 0, workload_.name + ": " + std::to_string(total) +
                                 " served predictions differ from the unsharded forward");
  checks->Expect(failed_ == 0, workload_.name + ": " + std::to_string(failed_) +
                                   " requests unanswered or malformed");
}

void ServeJob::Metrics(double cpu_scale, MetricMap* e2e, MetricMap* layer) const {
  std::vector<double> lat, wait, exec, lag, batch;
  double gathers = 0.0, batches = 0.0;
  for (const Session& session : fixed_) {
    for (const Request& r : session.requests) {
      lat.push_back(LatencyMs(r));
      wait.push_back(r.queue_wait_ms);
      exec.push_back(LatencyMs(r) - r.queue_wait_ms);
      lag.push_back(r.sent_ms - r.due_ms);
      batch.push_back(static_cast<double>(r.batch_samples));
    }
    gathers += session.gathers;
    batches += session.batches;
  }
  // A run holds 5-20 probes, too few for a fast tenth: their median.
  const double cpu_us = Median(overload_cpu_us_);
  (*e2e)["serve_cpu_us_per_request"] = cpu_us * cpu_scale;
  std::fprintf(stderr,
               "perfbench: %zu requests at %.0f/s: p50 %.3f ms, p99 %.3f ms; saturation "
               "probes at %.0f/s completed %.0f/s (keep-up %.2f) at %.1f CPU-us per "
               "request (%.1f at the reference host speed)\n",
               lat.size(), kFixedRateQps, Median(lat), Quantile(lat, 0.99),
               workload_.overload_qps, Median(overload_qps_), Median(overload_keep_up_),
               cpu_us, cpu_us * cpu_scale);
  if (Median(overload_keep_up_) >= kKeepUp) {
    std::fprintf(stderr, "perfbench: warning: the saturation probes kept up with "
                 "their arrivals, so their batches were not all full; raise the "
                 "saturation rate\n");
  }
  (*layer)["serve.p50_ms"] = Median(lat);
  (*layer)["serve.max_qps"] = Median(overload_qps_);
  (*layer)["serve.p99_ms"] = Quantile(lat, 0.99);
  (*layer)["serve.queue_wait_p50_ms"] = Median(wait);
  (*layer)["serve.batch_samples_mean"] = Mean(batch);
  (*layer)["serve.exec_p50_ms"] = Median(exec);
  (*layer)["serve.gathers_per_batch"] = batches > 0 ? gathers / batches : 0.0;
  (*layer)["loadgen.lag_p99_ms"] = Quantile(lag, 0.99);
}

}  // namespace perfbench
