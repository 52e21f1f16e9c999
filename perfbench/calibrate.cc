#include "calibrate.h"

#include <time.h>

#include <cstddef>
#include <vector>

namespace perfbench {

namespace {

constexpr int kM = 32, kK = 256, kN = 256;  // matrix product shape
constexpr int kProducts = 2;                // products per pass
constexpr size_t kStream = size_t{1} << 20;  // floats streamed (4 MiB)

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

struct Buffers {
  std::vector<float> a, b, c, stream;
  Buffers() : a(kM * kK), b(kK * kN), c(kM * kN), stream(kStream) {
    for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i % 7) * 0.125f;
    for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(i % 5) * 0.25f;
    for (size_t i = 0; i < stream.size(); ++i) stream[i] = static_cast<float>(i % 3);
  }
};

volatile float g_sink = 0.0f;

}  // namespace

double CalibrationPassCpuMs() {
  // Thread-local so that concurrent callers do not share (or race on) the
  // buffers; allocated before the clock starts.
  thread_local Buffers buf;
  const double t0 = ThreadCpuMs();
  float acc = 0.0f;
  for (int p = 0; p < kProducts; ++p) {
    for (int i = 0; i < kM; ++i) {
      float* c = &buf.c[static_cast<size_t>(i) * kN];
      for (int j = 0; j < kN; ++j) c[j] = 0.0f;
      for (int k = 0; k < kK; ++k) {
        const float aik = buf.a[static_cast<size_t>(i) * kK + k];
        const float* b = &buf.b[static_cast<size_t>(k) * kN];
        for (int j = 0; j < kN; ++j) c[j] += aik * b[j];
      }
    }
    acc += buf.c[static_cast<size_t>(p) % buf.c.size()];
  }
  for (size_t i = 0; i < kStream; ++i) {
    buf.stream[i] = buf.stream[i] * 0.5f + 1.0f;
    acc += buf.stream[i];
  }
  g_sink = acc;
  return ThreadCpuMs() - t0;
}

}  // namespace perfbench
