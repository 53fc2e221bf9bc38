// interactive: the search-box user. One in-process caller in a closed loop
// on XKeyword::Run, memory backend, top-k with default QueryOptions (Z=6,
// K=10), over a mostly distinct stream of 2- and 3-keyword queries.

#include <atomic>
#include <set>

#include "fixture.h"
#include "layer_trace.h"
#include "stats.h"
#include "workloads.h"

namespace xkpb {

namespace {

constexpr size_t kStreamLength = 6000;
constexpr size_t kWarmupQueries = 12;
constexpr int kVerifyThreads = 4;

/// Two of every three queries have 2 keywords, the third has 3, interleaved
/// so that every prefix of the stream holds the same mix.
std::vector<Keywords> InteractiveStream(const xk::datagen::DblpDatabase& db,
                                        uint64_t seed, std::set<Keywords>* seen) {
  QueryGenerator gen(db, seed);
  std::vector<Keywords> stream;
  stream.reserve(kStreamLength);
  for (size_t i = 0; i < kStreamLength; ++i) {
    stream.push_back(gen.Draw(i % 3 == 2 ? 3 : 2));
    seen->insert(Canonical(stream.back()));
  }
  return stream;
}

std::vector<Keywords> WarmupQueries(const xk::datagen::DblpDatabase& db, uint64_t seed,
                                    std::set<Keywords>* seen) {
  QueryGenerator gen(db, seed ^ kWarmupSalt);
  std::vector<Keywords> warm = gen.DrawDistinct(kWarmupQueries * 2 / 3, 2, seen);
  for (Keywords& q : gen.DrawDistinct(kWarmupQueries / 3, 3, seen)) {
    warm.push_back(std::move(q));
  }
  return warm;
}

std::vector<xk::engine::QueryRequest> Requests(const std::vector<Keywords>& queries) {
  std::vector<xk::engine::QueryRequest> out;
  out.reserve(queries.size());
  for (const Keywords& q : queries) out.push_back(MakeRequest(q));
  return out;
}

/// Each answered position must equal the kNaive answer, and every naive
/// MTTON must contain every keyword per the master index.
void VerifyInteractive(const xk::engine::XKeyword& xk,
                       const std::vector<Keywords>& stream,
                       const std::vector<RecordedAnswer>& answers, Tally* tally) {
  std::atomic<uint64_t> incomplete{0};
  const std::vector<uint64_t> reference = ParallelReference(
      stream.size(), answers, kVerifyThreads, [&](size_t pos) -> uint64_t {
        xk::engine::QueryRequest request = MakeRequest(stream[pos]);
        request.mode = xk::engine::QueryMode::kNaive;
        xk::Result<xk::engine::QueryResponse> naive = xk.Run(request);
        if (!naive.ok() || !naive->status.ok()) return 0;
        KeywordOracle oracle(&xk.master_index());
        const uint64_t digest = AnswerDigest(naive->mttons);
        if (oracle.CountIncomplete(stream[pos], naive->mttons) > 0) {
          ++incomplete;
          return ~digest;
        }
        return digest;
      });
  CheckDigests(answers, reference, tally);
  Note("checks: %zu answers vs kNaive, %llu queries with an MTTON missing a keyword",
       answers.size(), static_cast<unsigned long long>(incomplete.load()));
}

}  // namespace

xk::Result<WorkloadReport> RunInteractive(const Options& options) {
  const xk::datagen::DblpConfig config = BenchDblpConfig();
  std::vector<double> setup_s;
  Fixture f;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupRepeats); ++rep) {
    f.Reset();  // release the previous fixture before timing the next
    const int64_t t0 = NowNanos();
    XK_ASSIGN_OR_RETURN(f, BuildFixture(config, {}));
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }

  std::set<Keywords> seen;
  const std::vector<Keywords> stream = InteractiveStream(*f.db, options.seed, &seen);
  const std::vector<Keywords> warmup = WarmupQueries(*f.db, options.seed, &seen);
  PrintProvenance(options, stream, "mode: topk Z=6 K=10, memory backend, 1 caller");
  const std::vector<xk::engine::QueryRequest> requests = Requests(stream);
  RunSingleCaller(*f.xk, Requests(warmup), 0, 0, warmup.size(), false);

  WorkloadReport report;
  if (!options.trace) {
    const PhaseResult phase =
        RunSingleCaller(*f.xk, requests, options.seconds, kMinInteractiveQueries, 0, false);
    report.metrics = EndToEndMetrics(phase, setup_s);
    report.tally.attempted = phase.attempted;
    report.tally.failed = phase.failed;
    VerifyInteractive(*f.xk, stream, phase.answers, &report.tally);
    return report;
  }

  // Traced pass, then the same queries untraced.
  SpanRecorder recorder;
  LayerTracer tracer(f.xk.get(), xk::engine::QueryMode::kTopK, {}, &recorder);
  std::vector<LayerSample> samples;
  std::vector<RecordedAnswer> traced_answers;
  const int64_t t0 = NowNanos();
  while (static_cast<double>(NowNanos() - t0) / 1e9 < options.seconds / 2 &&
         samples.size() < stream.size()) {
    const size_t pos = samples.size();
    ++report.tally.attempted;
    XK_ASSIGN_OR_RETURN(LayerSample sample, tracer.Run(pos + 1, stream[pos]));
    traced_answers.push_back(RecordedAnswer{pos, sample.digest});
    samples.push_back(sample);
  }
  const double traced_s = static_cast<double>(NowNanos() - t0) / 1e9;
  const size_t n = samples.size();

  std::vector<xk::engine::ExecutionStats> second;
  std::vector<size_t> second_results;
  const int64_t t1 = NowNanos();
  for (size_t pos = 0; pos < n; ++pos) {
    XK_ASSIGN_OR_RETURN(xk::engine::QueryResponse response, f.xk->Run(requests[pos]));
    second.push_back(response.stats);
    second_results.push_back(response.mttons.size());
  }
  const double untraced_s = static_cast<double>(NowNanos() - t1) / 1e9;

  const std::vector<Span> spans = recorder.Spans();
  PrintSpanTable(spans, n);
  PrintCounterRepeatability(samples, second, second_results);
  report.metrics = LayerMetrics(spans, samples);
  const double prepare = MetricValue(report.metrics, "engine.prepare_ms");
  const double unexplained = MetricValue(report.metrics, "engine.prepare_unexplained_ms");
  Note("engine.prepare: %.4f ms per query, of which the keyword/cn/opt stages leave "
       "%.4f ms (%.1f%%) unexplained (filter sets and glue)",
       prepare, unexplained, prepare == 0 ? 0 : 100 * unexplained / prepare);
  // Untraced over traced throughput on the same queries.
  report.metrics.push_back({"trace.overhead_ratio", traced_s / untraced_s});
  VerifyInteractive(*f.xk, stream, traced_answers, &report.tally);
  WriteTrace(options, recorder);
  return report;
}

}  // namespace xkpb
