// export_disk: one in-process caller exporting every MTTON (QueryMode::kAll,
// Z=4, the Fig. 4(b) presentation) of 2-keyword queries on the disk
// backend, with a buffer pool that holds about half of the pages the query
// set touches. The page count is measured at setup on a pool large enough
// to hold everything.
//
// Query cost is heavy-tailed (0 to ~1300 MTTONs per query), so the set is
// large and the stream walks it in seeded random permutations: every query
// runs once per cycle, and runs on different seeds sample the same mix.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/strings.h"
#include "fixture.h"
#include "layer_trace.h"
#include "stats.h"
#include "storage/page.h"
#include "storage/storage_tier.h"
#include "workloads.h"

namespace xkpb {

namespace {

constexpr size_t kQuerySetSize = 1000;
constexpr size_t kStreamLength = 20000;
constexpr size_t kWarmupQueries = 5;
constexpr int kMaxSizeZ = 4;
constexpr size_t kCalibrationPoolBytes = size_t{1} << 30;
constexpr int kVerifyThreads = 4;

xk::engine::QueryRequest ExportRequest(const Keywords& keywords) {
  xk::engine::QueryRequest request = MakeRequest(keywords);
  request.mode = xk::engine::QueryMode::kAll;
  request.options.max_size_z = kMaxSizeZ;
  return request;
}

xk::storage::StorageOptions DiskOptions(const std::string& dir, size_t pool_bytes) {
  xk::storage::StorageOptions storage;
  storage.backend = xk::storage::StorageBackend::kDisk;
  storage.buffer_pool_bytes = pool_bytes;
  storage.data_dir = dir;
  return storage;
}

/// Pages the query set touches: resident frames gained by running each
/// query once on a pool that never evicts.
xk::Result<size_t> TouchedPages(const Fixture& f, const std::vector<Keywords>& set) {
  const xk::storage::StorageTier* tier = f.xk->data().storage_tier.get();
  if (tier == nullptr) return xk::Status::Internal("disk fixture without a storage tier");
  const uint64_t before = tier->PoolStats().resident_bytes;
  for (const Keywords& q : set) {
    XK_ASSIGN_OR_RETURN(xk::engine::QueryResponse response, f.xk->Run(ExportRequest(q)));
    (void)response;
  }
  const xk::storage::BufferPoolStats after = tier->PoolStats();
  if (after.evictions != 0) return xk::Status::Internal("calibration pool evicted");
  return static_cast<size_t>((after.resident_bytes - before) / xk::storage::kPageSize);
}

/// Every recorded answer (a set digest per query-set index) must equal the
/// memory-backend kAll answer as a set.
void VerifyExport(const xk::engine::XKeyword& memory, const std::vector<Keywords>& set,
                  const std::vector<RecordedAnswer>& answers, Tally* tally) {
  const std::vector<uint64_t> reference = ParallelReference(
      set.size(), answers, kVerifyThreads, [&](size_t i) -> uint64_t {
        xk::Result<xk::engine::QueryResponse> r = memory.Run(ExportRequest(set[i]));
        if (!r.ok() || !r->status.ok()) return 0;
        return AnswerSetDigest(std::move(r->mttons));
      });
  CheckDigests(answers, reference, tally);
  Note("checks: %zu disk answers vs the memory-backend kAll answer (as sets)",
       answers.size());
}

/// The page-file directory of this process, removed when it goes away.
class DataDir {
 public:
  explicit DataDir(const std::string& parent)
      : path_(xk::StrFormat("%s/export_disk-%d", parent.c_str(), static_cast<int>(getpid()))) {
    ::mkdir(path_.c_str(), 0755);
  }
  ~DataDir() { ::rmdir(path_.c_str()); }
  DataDir(const DataDir&) = delete;
  DataDir& operator=(const DataDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

xk::Result<WorkloadReport> RunExportDisk(const Options& options) {
  const xk::datagen::DblpConfig config = BenchDblpConfig();
  const DataDir dir(options.data_dir);

  // Setup 0 loads with a pool that holds everything and measures the pages
  // the query set touches; the others load with half that many.
  std::vector<double> setup_s;
  Fixture f;
  std::vector<Keywords> set;
  size_t touched_pages = 0;
  size_t pool_bytes = kCalibrationPoolBytes;
  const int setups = options.trace ? 2 : kSetupRepeats;
  for (int rep = 0; rep < setups; ++rep) {
    f.Reset();
    const int64_t t0 = NowNanos();
    XK_ASSIGN_OR_RETURN(f, BuildFixture(config, DiskOptions(dir.path(), pool_bytes)));
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    if (rep == 0) {
      std::set<Keywords> seen;
      set = QueryGenerator(*f.db, options.seed).DrawDistinct(kQuerySetSize, 2, &seen);
      XK_ASSIGN_OR_RETURN(touched_pages, TouchedPages(f, set));
      pool_bytes = std::max<size_t>(1, touched_pages / 2) * xk::storage::kPageSize;
    }
  }

  std::set<Keywords> seen;
  for (const Keywords& q : set) seen.insert(Canonical(q));
  std::vector<Keywords> warmup =
      QueryGenerator(*f.db, options.seed ^ kWarmupSalt).DrawDistinct(kWarmupQueries, 2, &seen);
  xk::Random rng(options.seed ^ kStreamSalt);
  std::vector<size_t> stream_index;
  std::vector<size_t> cycle(set.size());
  while (stream_index.size() < kStreamLength) {
    std::iota(cycle.begin(), cycle.end(), 0);
    std::shuffle(cycle.begin(), cycle.end(), rng.engine());
    stream_index.insert(stream_index.end(), cycle.begin(), cycle.end());
  }
  std::vector<xk::engine::QueryRequest> stream;
  stream.reserve(stream_index.size());
  for (size_t i : stream_index) stream.push_back(ExportRequest(set[i]));
  PrintProvenance(options, set,
                  xk::StrFormat("mode: kAll Z=%d, disk backend, 1 caller; buffer pool "
                                "%zu bytes (%zu pages) vs %zu pages (%zu bytes) touched "
                                "by the query set",
                                kMaxSizeZ, pool_bytes, pool_bytes / xk::storage::kPageSize,
                                touched_pages, touched_pages * xk::storage::kPageSize));
  std::vector<xk::engine::QueryRequest> warm_requests;
  for (const Keywords& q : warmup) warm_requests.push_back(ExportRequest(q));
  RunSingleCaller(*f.xk, warm_requests, 0, 0, warm_requests.size(), false);

  auto to_set_index = [&](std::vector<RecordedAnswer> answers) {
    for (RecordedAnswer& a : answers) a.query = stream_index[a.query];
    return answers;
  };

  WorkloadReport report;
  if (!options.trace) {
    const xk::storage::BufferPoolStats pool0 = f.xk->data().storage_tier->PoolStats();
    const PhaseResult phase =
        RunSingleCaller(*f.xk, stream, options.seconds, kMinTimedQueries, 0, true);
    const xk::storage::BufferPoolStats pool1 = f.xk->data().storage_tier->PoolStats();
    report.metrics = EndToEndMetrics(phase, setup_s);
    Note("buffer pool over the timed phase: %llu hits, %llu misses, %llu evictions",
         static_cast<unsigned long long>(pool1.hits - pool0.hits),
         static_cast<unsigned long long>(pool1.misses - pool0.misses),
         static_cast<unsigned long long>(pool1.evictions - pool0.evictions));
    report.tally.attempted = phase.attempted;
    report.tally.failed = phase.failed;
    XK_ASSIGN_OR_RETURN(Fixture memory, BuildFixture(config, {}));
    VerifyExport(*memory.xk, set, to_set_index(phase.answers), &report.tally);
    return report;
  }

  XK_ASSIGN_OR_RETURN(Fixture memory, BuildFixture(config, {}));
  SpanRecorder recorder;
  xk::engine::QueryOptions query_options;
  query_options.max_size_z = kMaxSizeZ;
  LayerTracer tracer(f.xk.get(), xk::engine::QueryMode::kAll, query_options, &recorder,
                     memory.xk.get());
  std::vector<LayerSample> samples;
  std::vector<RecordedAnswer> answers;
  const int64_t t0 = NowNanos();
  while (static_cast<double>(NowNanos() - t0) / 1e9 < options.seconds / 2 &&
         samples.size() < kStreamLength) {
    const size_t pos = samples.size();
    ++report.tally.attempted;
    XK_ASSIGN_OR_RETURN(LayerSample sample, tracer.Run(pos + 1, set[stream_index[pos]]));
    answers.push_back(RecordedAnswer{pos, sample.digest});
    samples.push_back(sample);
  }
  const double traced_s = static_cast<double>(NowNanos() - t0) / 1e9;
  const size_t n = samples.size();

  std::vector<xk::engine::ExecutionStats> second;
  std::vector<size_t> second_results;
  const int64_t t1 = NowNanos();
  for (size_t pos = 0; pos < n; ++pos) {
    XK_ASSIGN_OR_RETURN(xk::engine::QueryResponse response, f.xk->Run(stream[pos]));
    second.push_back(response.stats);
    second_results.push_back(response.mttons.size());
  }
  const double untraced_s = static_cast<double>(NowNanos() - t1) / 1e9;

  const std::vector<Span> spans = recorder.Spans();
  PrintSpanTable(spans, n);
  PrintCounterRepeatability(samples, second, second_results);
  report.metrics = LayerMetrics(spans, samples);
  // The traced pass also replays each query on the memory twin, so compare
  // against the traced pass without that replay.
  const double twin_s = SpanRecorder::TotalsByName(spans)["storage.memory_replay"].total_ms / 1e3;
  report.metrics.push_back(
      {"trace.overhead_ratio", (traced_s - twin_s) / untraced_s});
  VerifyExport(*memory.xk, set, to_set_index(answers), &report.tally);
  WriteTrace(options, recorder);
  return report;
}

}  // namespace xkpb
