// mics_perfbench: one run of one benchmark workload.
//
//   mics_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--quick] [--workdir DIR]
//
// Sets the job up several times (setup_s is the median), trains DDP,
// ZeRO-3, MiCS and the single-rank baseline in interleaved rounds for the
// workload's share of S seconds, serves open-loop traffic, then checks
// every output. The end-to-end times are process CPU times, converted to
// the reference host speed with a calibration kernel timed between the
// rounds (calibrate.h). With --trace 1 each call into a layer's public API is
// timed from here; with --trace 0 no per-call timer runs. --quick shrinks
// the serving chunks for the short correctness mode.
//
// Progress goes to stderr; the last stdout line is one JSON object with
// the verdict, the operation counts and both metric groups.

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "bench_util.h"
#include "calibrate.h"
#include "kernels/kernels.h"
#include "serve_bench.h"
#include "train_bench.h"
#include "workloads.h"

#ifndef MICS_PERFBENCH_BUILD_TYPE
#define MICS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// The fast-tenth calibration pass on the reference host (the fingerprint
// in README.md). CPU times are scaled by kReferenceCalibrationMs over this
// run's fast-tenth pass, so each end-to-end figure reads as if measured at
// the reference host's speed.
constexpr double kReferenceCalibrationMs = 1.7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string workdir = ".bench_work";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: mics_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--quick] [--workdir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = next();
    } else if (k == "--seed") {
      a.seed = std::stoull(next());
    } else if (k == "--seconds") {
      a.seconds = std::stod(next());
    } else if (k == "--trace") {
      a.trace = next() == "1";
    } else if (k == "--quick") {
      a.quick = true;
    } else if (k == "--workdir") {
      a.workdir = next();
    } else {
      Usage("unknown argument " + k);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const MetricMap& m) {
  std::string out = "{";
  for (const auto& [name, value] : m) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": " + JsonNumber(value);
  }
  return out + "}";
}

void Progress(const std::string& line) { std::cerr << "perfbench: " << line << "\n"; }

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const Workload* found = FindWorkload(args.workload);
  if (found == nullptr) Usage("unknown workload " + args.workload);
  Workload w = *found;
  if (args.quick) {
    w.probe_seconds = 0.05;
    w.chunk_seconds = 0.1;
  }

  const std::string workdir =
      args.workdir + "/" + w.name + "-" + std::to_string(getpid());
  std::filesystem::create_directories(workdir);

  Checks checks;
  SetupSinks sinks;
  if (w.resume_prep_iters > 0) {
    DieUnlessOk(PrepareResumeCheckpoints(w, args.seed, workdir),
                "writing the resume checkpoints");
  }

  // Set the whole job up from nothing several times; the last one runs.
  constexpr int kSetups = 5;
  std::vector<double> setup_cpu_s, calibration_ms;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<TrainJob> train;
  std::unique_ptr<ServeJob> serve;
  for (int i = 0; i < kSetups; ++i) {
    serve.reset();
    train.reset();
    cluster.reset();
    // Hand the torn-down job's memory back, so that peak_rss_mb is one
    // job's and not the allocator's leftovers from the earlier setups.
    malloc_trim(0);
    calibration_ms.push_back(CalibrationPassCpuMs());
    const double cpu0 = ProcessCpuMs();
    auto c = Cluster::Create(w.backend, args.trace ? &sinks.connect : nullptr);
    DieUnlessOk(c.status(), "cluster connect");
    cluster = std::move(c).value();
    TrainJob::Options o;
    o.seed = args.seed;
    o.trace = args.trace;
    o.workdir = workdir;
    o.resume = w.resume_prep_iters > 0;
    auto t = TrainJob::Create(w, cluster.get(), o, &sinks);
    DieUnlessOk(t.status(), "training setup");
    train = std::move(t).value();
    auto s = ServeJob::Create(w, args.seed, &sinks, args.trace);
    DieUnlessOk(s.status(), "serving setup");
    serve = std::move(s).value();
    setup_cpu_s.push_back((ProcessCpuMs() - cpu0) / 1000.0);
  }

  DieUnlessOk(train->MarkStart(), "held-out loss");
  // One untimed warm-up round, then whole timed training rounds and
  // serving chunks, interleaved so that each gets its share of the run and
  // a slow spell of the host lands on both. At least four chunks run, so
  // at least two of them are saturation probes.
  DieUnlessOk(train->RunIterations(w.iters_per_round, false, &checks),
              "warm-up round");
  const double train_budget_ms = w.train_share * args.seconds * 1000.0;
  const double serve_budget_ms = w.serve_share * args.seconds * 1000.0;
  double train_ms = 0.0, serve_ms = 0.0;
  int rounds = 0, chunks = 0;
  while (rounds < 2 || chunks < 4 || train_ms < train_budget_ms ||
         serve_ms < serve_budget_ms) {
    const bool train_next =
        rounds < 2 || (train_ms < train_budget_ms &&
                       train_ms / train_budget_ms <= serve_ms / serve_budget_ms);
    calibration_ms.push_back(CalibrationPassCpuMs());
    const Clock::time_point t0 = Clock::now();
    if (train_next) {
      DieUnlessOk(train->RunIterations(w.iters_per_round, true, &checks),
                  "training round");
      train_ms += MsBetween(t0, Clock::now());
      ++rounds;
    } else {
      DieUnlessOk(serve->RunChunk(), "serving chunk");
      serve_ms += MsBetween(t0, Clock::now());
      ++chunks;
    }
  }
  Progress(std::to_string(rounds) + " training rounds in " +
           std::to_string(train_ms / 1000.0) + " s, " + std::to_string(chunks) +
           " serving chunks in " + std::to_string(serve_ms / 1000.0) + " s");

  // The peak of the job through setup and the timed loop; the checks
  // below build reference engines and models of their own.
  const double peak_rss_mb = PeakRssBytes() / (1024.0 * 1024.0);
  train->Check(&checks);
  serve->Check(&checks);
  MetricMap e2e, layer;
  // Host interference only adds CPU time (a busy sibling hyperthread,
  // shared caches, a lower clock), to the program and the calibration
  // alike; the fast tenth of each is measured in the calmest spells.
  const double calibration = Quantile(calibration_ms, 0.1);
  const double cpu_scale = kReferenceCalibrationMs / calibration;
  Progress("host speed: calibration pass " + std::to_string(calibration) +
           " ms (fast tenth of " + std::to_string(calibration_ms.size()) +
           "), reference " + std::to_string(kReferenceCalibrationMs) + " ms");
  train->Metrics(cpu_scale, &e2e, &layer);
  serve->Metrics(cpu_scale, &e2e, &layer);
  e2e["setup_s"] = Median(setup_cpu_s) * cpu_scale;
  layer["host.calibration_ms"] = calibration;
  e2e["peak_rss_mb"] = peak_rss_mb;
  layer["train.ckpt_load_ms"] = Median(sinks.ckpt_load.AllMs());
  layer["train.engine_create_ms"] = Median(sinks.engine_create.AllMs());
  layer["net.connect_ms"] = Median(sinks.connect.AllMs());
  layer["serve.load_ms"] = Median(sinks.serve_load.AllMs());

  const int64_t attempted = train->iterations_attempted() + serve->requests_attempted();
  const int64_t failed = serve->requests_failed();
  std::vector<std::vector<float>> socket_losses;
  std::vector<std::string> strategies;
  for (int i = 0; i < train->num_strategies(); ++i) {
    socket_losses.push_back(train->losses(i));
    strategies.push_back(train->strategy_name(i));
  }
  serve.reset();
  train.reset();
  cluster.reset();

  if (w.backend == mics::BackendKind::kSocket) {
    // Transport independence: the first socket round, replayed in-process
    // from the same checkpoint, gives the same loss bits.
    auto inproc = Cluster::Create(mics::BackendKind::kInProcess, nullptr);
    DieUnlessOk(inproc.status(), "in-process replay cluster");
    TrainJob::Options o;
    o.seed = args.seed;
    o.workdir = workdir;
    o.resume = true;
    SetupSinks unused;
    auto replay = TrainJob::Create(w, inproc.value().get(), o, &unused);
    DieUnlessOk(replay.status(), "in-process replay setup");
    DieUnlessOk(replay.value()->RunIterations(w.iters_per_round, false, &checks),
                "in-process replay");
    for (size_t i = 0; i < strategies.size(); ++i) {
      const auto& want = replay.value()->losses(static_cast<int>(i));
      const auto& got = socket_losses[i];
      checks.Expect(got.size() >= want.size() &&
                        std::memcmp(got.data(), want.data(),
                                    want.size() * sizeof(float)) == 0,
                    w.name + "/" + strategies[i] +
                        ": socket loss bits differ from the in-process replay");
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(workdir, ec);
  std::filesystem::remove(args.workdir, ec);  // only if now empty

  for (const std::string& m : checks.messages()) Progress("CHECK FAILED: " + m);
  std::string failures = "[";
  for (const std::string& m : checks.messages()) {
    if (failures.size() > 1) failures += ", ";
    failures += JsonString(m);
  }
  failures += "]";
  std::cout << "{\"correct\": " << (checks.all_passed() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"checks\": " << checks.total()
            << ", \"check_failures\": " << failures
            << ", \"kernels\": " << JsonString(mics::kernels::ActiveName())
            << ", \"build_type\": " << JsonString(MICS_PERFBENCH_BUILD_TYPE)
            << ", \"end_to_end\": " << JsonMetrics(e2e)
            << ", \"per_layer\": " << JsonMetrics(layer) << "}" << std::endl;
  return checks.all_passed() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
