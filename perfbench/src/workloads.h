// The three workloads and what they share: options, the metric list, the
// single-caller closed loop, and the end-to-end metric computation.

#ifndef XK_PERFBENCH_WORKLOADS_H_
#define XK_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "answer_checks.h"
#include "common/result.h"
#include "engine/query_request.h"
#include "engine/xkeyword.h"
#include "query_gen.h"

namespace xkpb {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".";   // page files of the disk backend
  std::string trace_dir = ".";  // span dumps of traced runs
};

/// A measured value; its unit comes from the metric name lists below.
struct Metric {
  std::string name;
  double value = 0;
};

/// Value of the metric called `name` in `metrics` (0 when absent).
double MetricValue(const std::vector<Metric>& metrics, const std::string& name);

struct WorkloadReport {
  Tally tally;
  std::vector<Metric> metrics;
};

xk::Result<WorkloadReport> RunInteractive(const Options& options);
xk::Result<WorkloadReport> RunServeSocket(const Options& options);
xk::Result<WorkloadReport> RunExportDisk(const Options& options);

/// Setups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
/// latency_p99_ms needs at least this many measured queries (ten beyond it),
/// so a timed phase runs past --seconds until it has them.
inline constexpr size_t kMinTimedQueries = 1000;
/// interactive queries are mostly distinct and their cost is heavy-tailed;
/// its timed phase runs until this many, so that runs on different seeds
/// sample the same mix.
inline constexpr size_t kMinInteractiveQueries = 1500;
/// Hard cap on one timed phase, whatever the query count.
inline constexpr double kMaxPhaseSeconds = 90;

/// End-to-end metric names, in report order, with their units.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames();
/// Per-layer metric names (traced runs), in report order, with their units.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames();

/// What a timed phase measured.
struct PhaseResult {
  std::vector<double> latency_ms;  // one per completed query
  std::vector<RecordedAnswer> answers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;  // read when the phase ends
};

/// One in-process caller in a closed loop on XKeyword::Run over
/// stream[0], stream[1], ... (wrapping), for `seconds` and at least
/// `min_queries` queries; `max_queries` > 0 stops it after exactly that many
/// instead. RecordedAnswer::query is the stream position; the digest is
/// taken after the latency clock stops.
PhaseResult RunSingleCaller(const xk::engine::XKeyword& xk,
                            const std::vector<xk::engine::QueryRequest>& stream,
                            double seconds, size_t min_queries, size_t max_queries,
                            bool set_digest);

/// Reference digest per stream position named in `answers` (0 elsewhere),
/// computed by `threads` callers in parallel after the timed phase.
std::vector<uint64_t> ParallelReference(size_t size,
                                        const std::vector<RecordedAnswer>& answers,
                                        int threads,
                                        const std::function<uint64_t(size_t)>& reference);

/// The end-to-end metrics of an untraced phase (see README.md).
std::vector<Metric> EndToEndMetrics(const PhaseResult& phase,
                                    const std::vector<double>& setup_s);

/// Prints one "key: value" report line (human-readable, before the JSON).
void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Prints the provenance block every report carries.
void PrintProvenance(const Options& options, const std::vector<Keywords>& queries,
                     const std::string& extra);

}  // namespace xkpb

#endif  // XK_PERFBENCH_WORKLOADS_H_
