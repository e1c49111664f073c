// Host-speed calibration. The benchmark shares its machine: the speed of a
// CPU there swings by up to 2x over seconds to minutes, and while every CPU
// of the machine is busy its host takes part of them away (steal time). A
// fixed calibration kernel timed between the iterations measures that speed,
// and ops_per_host_s rescales each iteration's host time to a nominal kernel
// duration. The kernel calls no simulator code, so a change to the
// simulator never changes the yardstick.
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <cstddef>
#include <cstdint>

namespace lupine::perfbench {

// Duration of one calibration kernel on a machine at nominal speed.
inline constexpr int64_t kNominalCalibrationNs = 5'000'000;

// Runs the calibration kernel once on each of `threads` threads at once
// (on the calling thread when `threads` is 1) and returns the mean host ns
// per kernel. It runs between iterations with as many threads as the
// workload runs, so for a multi-threaded workload it also sees the cores
// the machine takes away from a fully busy process.
int64_t MeasureCalibrationNs(size_t threads = 1);

}  // namespace lupine::perfbench

#endif  // PERFBENCH_CALIBRATE_H_
