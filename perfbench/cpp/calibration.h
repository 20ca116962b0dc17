/**
 * @file
 * Machine-speed calibration for host times.
 *
 * The benchmark's host shares its CPUs, caches and memory with other
 * machines' work, and the speed left to one process drifts by 20% and
 * more over tens of seconds.  Every timed pass is therefore bracketed
 * by a fixed calibration kernel - fbsim-independent, allocation-free,
 * identical work on every call, and shaped like a cache simulator's
 * inner loop (tag probes, a presence table far larger than L2,
 * indirect calls) so that it slows down when the simulator does.
 * Host times are reported at reference speed: scaled by
 * kReferenceSeconds / (the kernel's time next to the measurement).
 */

#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

namespace perfbench {

/** The kernel's host time on an uncontended core of the 4-CPU
 *  machine the bounds were tuned on; the reference speed. */
inline constexpr double kReferenceSeconds = 0.035;

/** Run the calibration kernel once; returns its host seconds. */
double calibrate();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATION_H_
