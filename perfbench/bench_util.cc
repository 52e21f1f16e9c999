#include "bench_util.h"

#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"

namespace perfbench {

double CounterValue(const std::string& name) {
  return mics::obs::MetricsRegistry::Global().CounterValue(name);
}

double PeakRssBytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux: KiB
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

void DieUnlessOk(const mics::Status& st, const std::string& what) {
  if (st.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

}  // namespace perfbench
