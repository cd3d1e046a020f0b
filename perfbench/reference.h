// Host-speed reference for the benchmark's CPU-time metrics.
//
// On a shared machine the CPU time a fixed piece of work takes drifts with
// what the neighbours do: the same parallel sweep cost 1.49 ms of CPU per
// verdict in one window and 1.07 ms less than an hour later. The kernel is
// fixed work of the benchmark's own (integer mixing, a chain of dependent
// loads, open-addressing hash probes and a sort), so its CPU time moves with
// the machine and never with the program under test. It allocates nothing
// after its first call, so the driver's heap does not affect it either. The
// driver samples it between requests and rescales its CPU-time metrics to a
// nominal host on which the kernel takes kNominalReferenceMs.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

namespace perfbench {

// The kernel's CPU time on the nominal host. Metrics are reported as if
// measured there: raw CPU time x kNominalReferenceMs / median kernel time.
inline constexpr double kNominalReferenceMs = 1.0;

// Runs the kernel twice on the calling thread, so the first pass restores
// the caches the last request evicted, and returns the thread CPU
// milliseconds of the second pass.
double ReferenceKernelMs();

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
