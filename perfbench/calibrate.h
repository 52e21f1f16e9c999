// Host-speed calibration: a fixed kernel of the benchmark's own, timed in
// thread CPU time between the timed units of a run. Built as a separate
// target that does not link the mics library, so no change to the library
// or its build flags can change the kernel.

#ifndef MICS_PERFBENCH_CALIBRATE_H_
#define MICS_PERFBENCH_CALIBRATE_H_

namespace perfbench {

/// Runs one pass of the calibration kernel on the calling thread and
/// returns its CPU time in ms: a small dense matrix product and a
/// streaming pass over a few megabytes, the compute and memory mix of one
/// rank's training step. Its cost depends only on how fast the host runs
/// this VM's CPU at the moment (clock frequency, a busy sibling
/// hyperthread, shared caches).
double CalibrationPassCpuMs();

}  // namespace perfbench

#endif  // MICS_PERFBENCH_CALIBRATE_H_
