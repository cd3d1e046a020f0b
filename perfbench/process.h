// Child-process helpers: spawn a program with its output captured, wait for
// it, and read its resource usage.
#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

#include <string>
#include <vector>

namespace perfbench {

struct ProcessResult {
  bool spawned = false;
  int exit_code = -1;  // 128 + signal number when killed by a signal.
  std::string output;  // stdout and stderr, interleaved.
};

// Runs `argv` (argv[0] is a path) to completion; returns after the child has
// been reaped.
ProcessResult RunProcess(const std::vector<std::string>& argv);

// User + system CPU seconds of this process, plus its reaped children when
// `children` is set.
double CpuSeconds(bool children);

// Peak resident set (MiB) of this process, or of its largest reaped child.
double PeakRssMb(bool children);

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
