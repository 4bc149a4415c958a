// The host's speed, measured through a run with a fixed reference task, so
// timings can be reported at one nominal speed.
//
// The benchmark's host is a VM on a shared machine.  Its speed drifts by up
// to 1.5x over tens of seconds: a fixed CPU-bound loop takes 0.40 s in one
// stretch and 0.62 s in the next, in CPU time as well as wall time, with
// nothing else running in the VM.  Such a stretch covers a whole run, so no
// median within a run hides it.  The benchmark therefore samples a
// reference task of its own -- code of this directory only, no itdb code --
// throughout each timed phase, and divides every timing by the host's
// slowdown in the same stretch: the mean of the middle half of the
// reference task's durations there, over its nominal duration.  A change to itdb moves the timings and not
// the reference task; a slow stretch of the host moves both.

#ifndef ITDB_PERFBENCH_HOST_SPEED_H_
#define ITDB_PERFBENCH_HOST_SPEED_H_

#include <vector>

namespace e2e {

/// Nominal duration of the reference task, in microseconds: about its
/// median on a 4-vCPU Xeon VM.  Timings are reported at the speed at which
/// the task takes this long.
inline constexpr double kReferenceNominalUs = 400.0;

/// Runs the reference task once and returns its duration in microseconds.
/// The task builds and evaluates six random expression trees of 1023 nodes:
/// allocation, virtual calls and pointer chasing, the shape of the engine's
/// work on query trees and tuple lists.  Of a sort, a std::map, string
/// building, integer gcds, binary searches, random memory reads and
/// difference-bound-matrix closures, tried as tasks on the same VM, it
/// tracked the per-second latency of the thm41 and service statements most
/// closely (correlation about 0.9).
double ReferenceTaskMicros();

/// Reference-task durations sampled through a timed phase.
class HostSpeed {
 public:
  /// Runs the task `reps` times and records the durations at time `t`
  /// (seconds into the phase).
  void Sample(double t, int reps = 1);
  /// The slowdown over the samples at times in [from, to): the mean of
  /// the middle half of their durations over kReferenceNominalUs (above 1:
  /// slower than nominal).  Over every sample when none falls in the span.
  double Slowdown(double from, double to) const;
  /// Slowdown of each of `windows` equal spans of [0, span).
  std::vector<double> Windows(double span, int windows) const;
  /// Median duration over every sample, in microseconds.
  double MedianMicros() const;
  std::size_t size() const { return us_.size(); }

 private:
  std::vector<double> t_;
  std::vector<double> us_;
};

}  // namespace e2e

#endif  // ITDB_PERFBENCH_HOST_SPEED_H_
