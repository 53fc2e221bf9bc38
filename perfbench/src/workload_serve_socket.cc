// serve_socket: 4 closed-loop callers (one per core), each on its own
// net::Client connection, into one net::Server over a QueryService with
// default options (4 workers, answer cache and coalescing on). Requests are
// drawn Zipf(s=1) from a pool of 60 distinct 2-keyword queries. The loop is
// closed because the server serves one query at a time per connection: each
// connection is a caller waiting for its reply.
//
// The pool is fixed for an epoch of 100 requests per caller, then replaced
// by a fresh pool. With one pool for the whole run, every query would be
// cached within the first second and the rest of the run would time cache
// hits only; epochs keep the hit/miss mix of a 400-request window (about
// 85% hits) for as long as the run lasts.

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "common/strings.h"
#include "fixture.h"
#include "layer_trace.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "stats.h"
#include "workloads.h"

namespace xkpb {

namespace {

constexpr int kCallers = 4;
constexpr size_t kPoolSize = 60;
constexpr double kZipfS = 1.0;
constexpr size_t kEpochRequests = 100;  // per caller
constexpr size_t kEpochs = 40;          // per caller stream, wrapped if exhausted
constexpr size_t kStreamLength = kEpochRequests * kEpochs;
constexpr size_t kWarmupQueries = 8;

/// Service + server + one connection per caller. Members are destroyed in
/// reverse order: connections, then the server, then the service.
struct ServeStack {
  std::unique_ptr<xk::service::QueryService> service;
  std::unique_ptr<xk::net::Server> server;
  std::vector<xk::net::Client> clients;

  /// Tears down in destruction order. Call it before assigning a new stack:
  /// member-wise assignment would free the service under a running server.
  void Reset() {
    clients.clear();
    server.reset();
    service.reset();
  }
};

xk::Result<ServeStack> StartStack(const xk::engine::XKeyword& xk, bool with_server) {
  ServeStack stack;
  XK_ASSIGN_OR_RETURN(stack.service, xk::service::QueryService::Create(&xk));
  if (!with_server) return stack;
  XK_ASSIGN_OR_RETURN(stack.server, xk::net::Server::Start(stack.service.get()));
  for (int c = 0; c < kCallers; ++c) {
    XK_ASSIGN_OR_RETURN(xk::net::Client client, xk::net::Client::Connect(stack.server->port()));
    stack.clients.push_back(std::move(client));
  }
  return stack;
}

struct RequestRecord {
  double latency_ms = 0;
  uint32_t batches = 0;  // kBatch frames before kFinal (socket passes)
  bool ok = false;
  bool rejected = false;
};

struct Pass {
  std::vector<std::vector<RequestRecord>> records;  // per caller
  std::vector<RecordedAnswer> answers;              // query = pool index
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;

  size_t requests() const {
    size_t n = 0;
    for (const auto& r : records) n += r.size();
    return n;
  }
  std::vector<size_t> counts() const {
    std::vector<size_t> out;
    for (const auto& r : records) out.push_back(r.size());
    return out;
  }
};

/// Runs the callers over their streams, through the sockets of `stack`
/// (with_socket) or in-process Submit/Wait on its service. With `counts`,
/// caller c issues exactly counts[c] requests; otherwise all run for
/// `seconds` and until `min_total` requests completed.
Pass RunPass(ServeStack* stack, bool with_socket,
             const std::vector<std::vector<size_t>>& streams,
             const std::vector<xk::engine::QueryRequest>& pool, double seconds,
             size_t min_total, const std::vector<size_t>* counts, SpanRecorder* recorder) {
  Pass pass;
  pass.records.resize(kCallers);
  std::vector<std::vector<RecordedAnswer>> answers(kCallers);
  std::atomic<bool> stop{false};
  std::atomic<size_t> completed{0};
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNanos();
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const std::vector<size_t>& stream = streams[static_cast<size_t>(c)];
      for (size_t i = 0;; ++i) {
        if (counts != nullptr ? i >= (*counts)[static_cast<size_t>(c)] : stop.load()) break;
        const size_t index = stream[i % stream.size()];
        RequestRecord rec;
        uint64_t digest = 0;
        const uint64_t query_id = (static_cast<uint64_t>(c) << 40) + i + 1;
        const int64_t q0 = NowNanos();
        if (with_socket) {
          ScopedSpan span(recorder, "net.client_run", 0, query_id);
          std::vector<std::vector<xk::present::Mtton>> batches;
          xk::Result<xk::engine::QueryResponse> r =
              stack->clients[static_cast<size_t>(c)].Run(pool[index], &batches);
          rec.latency_ms = static_cast<double>(NowNanos() - q0) / 1e6;
          rec.batches = static_cast<uint32_t>(batches.size());
          rec.rejected = !r.ok() && r.status().IsResourceExhausted();
          rec.ok = r.ok() && r->status.ok() &&
                   r->completeness == xk::engine::Completeness::kComplete;
          if (rec.ok) digest = AnswerDigest(r->mttons);
        } else {
          xk::Result<xk::service::QueryHandle> handle = stack->service->Submit(pool[index]);
          xk::Result<xk::engine::QueryResponse> r =
              handle.ok() ? handle->Wait() : xk::Result<xk::engine::QueryResponse>(handle.status());
          rec.latency_ms = static_cast<double>(NowNanos() - q0) / 1e6;
          rec.rejected = !r.ok() && r.status().IsResourceExhausted();
          rec.ok = r.ok() && r->status.ok() &&
                   r->completeness == xk::engine::Completeness::kComplete;
          if (rec.ok) digest = AnswerDigest(r->mttons);
        }
        pass.records[static_cast<size_t>(c)].push_back(rec);
        if (rec.ok) answers[static_cast<size_t>(c)].push_back(RecordedAnswer{index, digest});
        completed.fetch_add(1);
      }
    });
  }
  if (counts == nullptr) {
    auto elapsed = [&] { return static_cast<double>(NowNanos() - t0) / 1e9; };
    while (elapsed() < kMaxPhaseSeconds &&
           (elapsed() < seconds || completed.load() < min_total)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
  }
  for (std::thread& t : callers) t.join();
  pass.wall_s = static_cast<double>(NowNanos() - t0) / 1e9;
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  pass.peak_rss_mb = PeakRssMb();
  for (const auto& a : answers) pass.answers.insert(pass.answers.end(), a.begin(), a.end());
  return pass;
}

void TallyPass(const Pass& pass, Tally* tally) {
  for (const auto& caller : pass.records) {
    for (const RequestRecord& r : caller) {
      ++tally->attempted;
      if (r.rejected) {
        ++tally->rejected;
      } else if (!r.ok) {
        ++tally->failed;
      }
    }
  }
}

/// Each socket answer must be byte-identical to in-process XKeyword::Run.
void VerifyServe(const xk::engine::XKeyword& xk,
                 const std::vector<xk::engine::QueryRequest>& pool,
                 const std::vector<RecordedAnswer>& answers, Tally* tally) {
  const std::vector<uint64_t> reference =
      ParallelReference(pool.size(), answers, kCallers, [&](size_t i) -> uint64_t {
        xk::Result<xk::engine::QueryResponse> r = xk.Run(pool[i]);
        if (!r.ok() || !r->status.ok()) return 0;
        return AnswerDigest(r->mttons);
      });
  CheckDigests(answers, reference, tally);
  Note("checks: %zu socket answers byte-identical to in-process XKeyword::Run",
       answers.size());
}

/// Median latency of `pass` over the requests whose counterpart in
/// `reference` (same caller, same position) was streamed, or was not.
double MedianWhere(const Pass& pass, const Pass& reference, bool streamed) {
  std::vector<double> values;
  for (size_t c = 0; c < pass.records.size(); ++c) {
    const size_t n = std::min(pass.records[c].size(), reference.records[c].size());
    for (size_t i = 0; i < n; ++i) {
      if ((reference.records[c][i].batches > 0) == streamed) {
        values.push_back(pass.records[c][i].latency_ms);
      }
    }
  }
  return Median(values);
}

}  // namespace

xk::Result<WorkloadReport> RunServeSocket(const Options& options) {
  const xk::datagen::DblpConfig config = BenchDblpConfig();
  std::vector<double> setup_s;
  Fixture f;
  ServeStack stack;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupRepeats); ++rep) {
    stack.Reset();
    f.Reset();
    const int64_t t0 = NowNanos();
    XK_ASSIGN_OR_RETURN(f, BuildFixture(config, {}));
    XK_ASSIGN_OR_RETURN(stack, StartStack(*f.xk, /*with_server=*/true));
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }

  std::set<Keywords> seen;
  const std::vector<Keywords> pool_queries =
      QueryGenerator(*f.db, options.seed).DrawDistinct(kPoolSize * kEpochs, 2, &seen);
  const std::vector<Keywords> warmup =
      QueryGenerator(*f.db, options.seed ^ kWarmupSalt).DrawDistinct(kWarmupQueries, 2, &seen);
  std::vector<xk::engine::QueryRequest> pool;
  for (const Keywords& q : pool_queries) pool.push_back(MakeRequest(q));
  std::vector<std::vector<size_t>> streams;
  uint64_t stream_digest = Fnv1a("");
  for (int c = 0; c < kCallers; ++c) {
    streams.push_back(ZipfIndexStream(kPoolSize, kZipfS, kStreamLength,
                                      options.seed ^ (kStreamSalt * static_cast<uint64_t>(c + 1))));
    for (size_t i = 0; i < kStreamLength; ++i) {
      streams.back()[i] += (i / kEpochRequests) * kPoolSize;  // epoch's pool
    }
    for (size_t i : streams.back()) stream_digest = Fnv1a(std::to_string(i) + ",", stream_digest);
  }
  PrintProvenance(options, pool_queries,
                  xk::StrFormat("mode: topk Z=6 K=10 via net::Client -> net::Server -> "
                                "QueryService (defaults), memory backend, %d callers, Zipf(s=%g) over a "
                                "pool of %zu, new pool every %zu requests per caller; "
                                "stream digest %016llx",
                                kCallers, kZipfS, kPoolSize, kEpochRequests,
                                static_cast<unsigned long long>(stream_digest)));
  for (const Keywords& q : warmup) {
    XK_ASSIGN_OR_RETURN(xk::engine::QueryResponse r, stack.clients[0].Run(MakeRequest(q)));
    (void)r;
  }

  WorkloadReport report;
  if (!options.trace) {
    const Pass pass = RunPass(&stack, true, streams, pool, options.seconds,
                              kMinTimedQueries, nullptr, nullptr);
    PhaseResult phase;
    for (const auto& caller : pass.records) {
      for (const RequestRecord& r : caller) {
        if (r.ok) phase.latency_ms.push_back(r.latency_ms);
      }
    }
    phase.wall_s = pass.wall_s;
    phase.cpu_s = pass.cpu_s;
    phase.peak_rss_mb = pass.peak_rss_mb;
    report.metrics = EndToEndMetrics(phase, setup_s);
    const xk::service::MetricsSnapshot snap = stack.service->metrics().Snapshot();
    Note("service: %llu cache hits, %llu misses, %llu coalesced, %llu rejected",
         static_cast<unsigned long long>(snap.cache_hits),
         static_cast<unsigned long long>(snap.cache_misses),
         static_cast<unsigned long long>(snap.coalesced),
         static_cast<unsigned long long>(snap.rejected));
    TallyPass(pass, &report.tally);
    stack.Reset();
    VerifyServe(*f.xk, pool, pass.answers, &report.tally);
    return report;
  }

  // A: traced socket pass. B: the same requests untraced through a fresh
  // stack. C: the same requests in-process (Submit/Wait) on a fresh service.
  SpanRecorder recorder;
  const Pass traced = RunPass(&stack, true, streams, pool, options.seconds * 0.4, 0,
                              nullptr, &recorder);
  stack.Reset();
  const std::vector<size_t> counts = traced.counts();
  XK_ASSIGN_OR_RETURN(ServeStack fresh, StartStack(*f.xk, true));
  const Pass untraced = RunPass(&fresh, true, streams, pool, 0, 0, &counts, nullptr);
  const xk::service::MetricsSnapshot snap = fresh.service->metrics().Snapshot();
  fresh.Reset();
  XK_ASSIGN_OR_RETURN(ServeStack in_process, StartStack(*f.xk, false));
  const Pass direct = RunPass(&in_process, false, streams, pool, 0, 0, &counts, nullptr);
  const xk::service::MetricsSnapshot direct_snap = in_process.service->metrics().Snapshot();
  in_process.Reset();

  // Engine layers: each query of the first pool the stream reached, traced
  // once (the executions behind the cache misses).
  std::vector<char> reached(pool.size(), 0);
  for (size_t c = 0; c < counts.size(); ++c) {
    for (size_t i = 0; i < counts[c]; ++i) reached[streams[c][i % kStreamLength]] = 1;
  }
  std::fill(reached.begin() + static_cast<std::ptrdiff_t>(kPoolSize), reached.end(), 0);
  LayerTracer tracer(f.xk.get(), xk::engine::QueryMode::kTopK, {}, &recorder);
  std::vector<LayerSample> samples;
  std::vector<xk::engine::ExecutionStats> second;
  std::vector<size_t> second_results;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (reached[i] == 0) continue;
    XK_ASSIGN_OR_RETURN(LayerSample sample, tracer.Run((uint64_t{1} << 60) + i, pool_queries[i]));
    samples.push_back(sample);
    XK_ASSIGN_OR_RETURN(xk::engine::QueryResponse response, f.xk->Run(pool[i]));
    second.push_back(response.stats);
    second_results.push_back(response.mttons.size());
  }

  const std::vector<Span> spans = recorder.Spans();
  Note("engine layers below: each of the %zu first-pool queries reached, executed once",
       samples.size());
  PrintSpanTable(spans, samples.size());
  PrintCounterRepeatability(samples, second, second_results);
  auto served = [](const xk::service::MetricsSnapshot& s) {
    return static_cast<double>(s.cache_hits + s.cache_misses + s.coalesced);
  };
  Note("service counters, socket vs in-process pass over the same requests: hits %llu/%llu "
       "(%s), coalesced %llu/%llu (%s)",
       static_cast<unsigned long long>(snap.cache_hits),
       static_cast<unsigned long long>(direct_snap.cache_hits),
       snap.cache_hits == direct_snap.cache_hits ? "exact" : "varying",
       static_cast<unsigned long long>(snap.coalesced),
       static_cast<unsigned long long>(direct_snap.coalesced),
       snap.coalesced == direct_snap.coalesced ? "exact" : "varying");
  uint64_t batches = 0, streamed = 0, streamed_traced = 0;
  for (const auto& caller : untraced.records) {
    for (const RequestRecord& r : caller) {
      batches += r.batches;
      streamed += r.batches > 0 ? 1 : 0;
    }
  }
  for (const auto& caller : traced.records) {
    for (const RequestRecord& r : caller) streamed_traced += r.batches > 0 ? 1 : 0;
  }
  Note("net: %llu of %zu requests streamed (>= 1 kBatch frame); traced pass %llu (%s)",
       static_cast<unsigned long long>(streamed), untraced.requests(),
       static_cast<unsigned long long>(streamed_traced),
       streamed == streamed_traced ? "exact" : "varying");
  const double streamed_overhead =
      MedianWhere(untraced, untraced, true) - MedianWhere(direct, untraced, true);
  const double unstreamed_overhead =
      MedianWhere(untraced, untraced, false) - MedianWhere(direct, untraced, false);
  Note("net.overhead: streamed %.4f ms (socket median %.4f vs in-process %.4f), "
       "unstreamed %.4f ms",
       streamed_overhead, MedianWhere(untraced, untraced, true),
       MedianWhere(direct, untraced, true), unstreamed_overhead);

  report.metrics = LayerMetrics(spans, samples);
  report.metrics.push_back({"service.latency_p50_ms", snap.latency_p50_us / 1e3});
  report.metrics.push_back(
      {"service.answer_cache_hit_ratio",
       served(snap) == 0 ? 0 : static_cast<double>(snap.cache_hits) / served(snap)});
  report.metrics.push_back(
      {"service.coalesced_ratio",
       served(snap) == 0 ? 0 : static_cast<double>(snap.coalesced) / served(snap)});
  report.metrics.push_back({"net.overhead_ms", streamed_overhead});
  report.metrics.push_back({"net.overhead_unstreamed_ms", unstreamed_overhead});
  report.metrics.push_back(
      {"net.batches_per_query",
       static_cast<double>(batches) / static_cast<double>(std::max<size_t>(1, untraced.requests()))});
  // Untraced over traced throughput on the same requests.
  report.metrics.push_back({"trace.overhead_ratio", traced.wall_s / untraced.wall_s});

  TallyPass(traced, &report.tally);
  TallyPass(untraced, &report.tally);
  std::vector<RecordedAnswer> answers = traced.answers;
  answers.insert(answers.end(), untraced.answers.begin(), untraced.answers.end());
  VerifyServe(*f.xk, pool, answers, &report.tally);
  WriteTrace(options, recorder);
  return report;
}

}  // namespace xkpb
