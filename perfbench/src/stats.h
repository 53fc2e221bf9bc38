// Sample statistics and process probes shared by the workloads.

#ifndef XK_PERFBENCH_STATS_H_
#define XK_PERFBENCH_STATS_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace xkpb {

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty. With
/// n samples, at least n * (100 - p) / 100 samples lie above the result
/// (ten above p99 once n >= 1000).
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();
/// Resident-memory high-water mark of the process, in MiB.
double PeakRssMb();
/// Online CPUs.
int OnlineCpus();

/// 64-bit FNV-1a, chainable through `seed`.
uint64_t Fnv1a(std::string_view bytes, uint64_t seed = 0xcbf29ce484222325ull);

/// Nanoseconds on the steady clock.
int64_t NowNanos();

}  // namespace xkpb

#endif  // XK_PERFBENCH_STATS_H_
