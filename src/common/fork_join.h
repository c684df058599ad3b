// A fork-join over threads that already exist: how a summary kernel that
// cuts one job into independent pieces (GkSummary::MergePruned's co-ranked
// slices) borrows idle threads without knowing whose they are. The window
// executor implements it with its sort workers (stream/window_executor.h),
// so src/sketch needs no dependency on src/stream.

#ifndef STREAMGPU_COMMON_FORK_JOIN_H_
#define STREAMGPU_COMMON_FORK_JOIN_H_

#include <cstddef>
#include <functional>

namespace streamgpu {

/// Runs a few independent tasks at once and returns when all have run.
class ForkJoin {
 public:
  /// Threads that can run the tasks of one Run() at once, the calling
  /// thread included: the most pieces worth cutting a job into.
  virtual std::size_t width() const = 0;

  /// Runs task(i) exactly once for each i in [0, tasks), task(0) on the
  /// calling thread, and returns once every task has finished.
  virtual void Run(std::size_t tasks, const std::function<void(std::size_t)>& task) = 0;

 protected:
  ~ForkJoin() = default;
};

}  // namespace streamgpu

#endif  // STREAMGPU_COMMON_FORK_JOIN_H_
