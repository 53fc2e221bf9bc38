#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <thread>

#include "common/strings.h"
#include "fixture.h"
#include "stats.h"
#include "workloads.h"

namespace xkpb {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"latency_p50_ms", "ms"},   {"latency_p99_ms", "ms"},
      {"throughput_qps", "1/s"},  {"cpu_ms_per_query", "ms"},
      {"peak_rss_mb", "MiB"},     {"setup_s", "s"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"keyword.lookup_ms", "ms"},
      {"keyword.postings_per_query", "count"},
      {"cn.generate_ms", "ms"},
      {"cn.reduce_ms", "ms"},
      {"cn.networks_per_query", "count"},
      {"cn.kept_ratio", "ratio"},
      {"opt.plan_ms", "ms"},
      {"opt.plans_per_query", "count"},
      {"engine.prepare_ms", "ms"},
      {"engine.prepare_unexplained_ms", "ms"},
      {"engine.execute_ms", "ms"},
      {"engine.prepare_share", "ratio"},
      {"engine.results_per_query", "count"},
      {"engine.partial_cache_hit_ratio", "ratio"},
      {"engine.subplan_hit_ratio", "ratio"},
      {"exec.probes_per_query", "count"},
      {"exec.rows_scanned_per_query", "count"},
      {"exec.rows_per_result", "count"},
      {"exec.bloom_skip_ratio", "ratio"},
      {"storage.page_hit_ratio", "ratio"},
      {"storage.read_mb_per_query", "MB"},
      {"storage.evictions_per_query", "count"},
      {"storage.overhead_ms", "ms"},
      {"service.latency_p50_ms", "ms"},
      {"service.answer_cache_hit_ratio", "ratio"},
      {"service.coalesced_ratio", "ratio"},
      {"net.overhead_ms", "ms"},
      {"net.overhead_unstreamed_ms", "ms"},
      {"net.batches_per_query", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  return names;
}

double MetricValue(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

PhaseResult RunSingleCaller(const xk::engine::XKeyword& xk,
                            const std::vector<xk::engine::QueryRequest>& stream,
                            double seconds, size_t min_queries, size_t max_queries,
                            bool set_digest) {
  PhaseResult r;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNanos();
  for (size_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(NowNanos() - t0) / 1e9;
    if (max_queries > 0 ? i >= max_queries
                        : (elapsed >= seconds && r.latency_ms.size() >= min_queries) ||
                              elapsed >= kMaxPhaseSeconds) {
      break;
    }
    const size_t pos = i % stream.size();
    ++r.attempted;
    const int64_t q0 = NowNanos();
    xk::Result<xk::engine::QueryResponse> response = xk.Run(stream[pos]);
    const double ms = static_cast<double>(NowNanos() - q0) / 1e6;
    if (!response.ok() || !response->status.ok() ||
        response->completeness != xk::engine::Completeness::kComplete) {
      ++r.failed;
      continue;
    }
    r.latency_ms.push_back(ms);
    r.answers.push_back(RecordedAnswer{
        pos, set_digest ? AnswerSetDigest(response->mttons) : AnswerDigest(response->mttons)});
  }
  r.wall_s = static_cast<double>(NowNanos() - t0) / 1e9;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  r.peak_rss_mb = PeakRssMb();
  return r;
}

std::vector<uint64_t> ParallelReference(size_t size,
                                        const std::vector<RecordedAnswer>& answers,
                                        int threads,
                                        const std::function<uint64_t(size_t)>& reference) {
  std::vector<char> wanted(size, 0);
  for (const RecordedAnswer& a : answers) {
    if (a.query < size) wanted[a.query] = 1;
  }
  std::vector<size_t> positions;
  for (size_t i = 0; i < size; ++i) {
    if (wanted[i] != 0) positions.push_back(i);
  }
  std::vector<uint64_t> digests(size, 0);
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < positions.size(); i = next++) {
        digests[positions[i]] = reference(positions[i]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return digests;
}

std::vector<Metric> EndToEndMetrics(const PhaseResult& phase,
                                    const std::vector<double>& setup_s) {
  const size_t n = phase.latency_ms.size();
  const double completed = static_cast<double>(n);
  Note("latency samples: %zu (p99 has %zu above it)%s", n,
       n - static_cast<size_t>(std::ceil(0.99 * completed)),
       n < kMinTimedQueries ? "  WARNING: below 1000, p99 is not supported" : "");
  std::string setups;
  for (double s : setup_s) setups += xk::StrFormat(" %.3f", s);
  Note("setup samples (s):%s", setups.c_str());
  return {
      {"latency_p50_ms", Percentile(phase.latency_ms, 50)},
      {"latency_p99_ms", Percentile(phase.latency_ms, 99)},
      {"throughput_qps", completed / phase.wall_s},
      {"cpu_ms_per_query", n == 0 ? 0 : phase.cpu_s * 1e3 / completed},
      {"peak_rss_mb", phase.peak_rss_mb},
      {"setup_s", Median(setup_s)},
  };
}

void Note(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

void PrintProvenance(const Options& options, const std::vector<Keywords>& queries,
                     const std::string& extra) {
  Note("workload: %s  seed: %llu  seconds: %g  trace: %d", options.workload.c_str(),
       static_cast<unsigned long long>(options.seed), options.seconds,
       options.trace ? 1 : 0);
  Note("query set: %zu queries, digest %016llx", queries.size(),
       static_cast<unsigned long long>(QueryDigest(queries)));
  Note("dblp: %s", DescribeDblpConfig(BenchDblpConfig()).c_str());
  Note("nproc: %d  simd: %s  build: %s", OnlineCpus(), SimdIsa().c_str(), BuildType());
  if (!extra.empty()) Note("%s", extra.c_str());
}

}  // namespace xkpb
