#include "layer_trace.h"

#include <cstdio>
#include <functional>
#include <map>

#include "answer_checks.h"
#include "common/strings.h"
#include "cn/cn_generator.h"
#include "cn/ctssn.h"
#include "fixture.h"
#include "opt/optimizer.h"
#include "storage/buffer_pool.h"
#include "storage/storage_tier.h"

namespace xkpb {

using xk::engine::ExecutionStats;
using xk::engine::QueryMode;

namespace {

const xk::storage::StorageTier* TierOf(const xk::engine::XKeyword& xk) {
  return xk.data().storage_tier.get();
}

uint64_t Evictions(const xk::engine::XKeyword& xk) {
  const xk::storage::StorageTier* tier = TierOf(xk);
  return tier == nullptr ? 0 : tier->PoolStats().evictions;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

LayerTracer::LayerTracer(const xk::engine::XKeyword* xk, QueryMode mode,
                         xk::engine::QueryOptions options, SpanRecorder* recorder,
                         const xk::engine::XKeyword* twin)
    : xk_(xk), mode_(mode), options_(options), recorder_(recorder), twin_(twin) {}

xk::Result<std::vector<xk::present::Mtton>> LayerTracer::Execute(
    const xk::engine::PreparedQuery& prepared, ExecutionStats* stats) {
  if (mode_ == QueryMode::kAll) {
    xk::engine::FullExecutor executor(options_);
    return executor.Run(prepared, stats);
  }
  xk::engine::TopKExecutor executor;
  return executor.Run(prepared, options_, stats);
}

xk::Result<LayerSample> LayerTracer::Run(uint64_t query_id, const Keywords& keywords) {
  LayerSample sample;
  (void)xk::storage::BufferPool::DrainThreadCounters();
  const uint64_t evictions0 = Evictions(*xk_);
  xk::engine::PreparedQuery prepared;
  {
    ScopedSpan root(recorder_, "query", 0, query_id);
    {
      ScopedSpan span(recorder_, "engine.prepare", root.id(), query_id);
      XK_ASSIGN_OR_RETURN(prepared, xk_->Prepare(keywords, kDecomposition, options_));
    }
    {
      ScopedSpan replay(recorder_, "prepare.replay", root.id(), query_id);
      const xk::keyword::MasterIndex& index = xk_->master_index();
      std::vector<std::vector<xk::schema::SchemaNodeId>> nodes;
      {
        ScopedSpan span(recorder_, "keyword.lookup", replay.id(), query_id);
        for (const std::string& k : keywords) {
          nodes.push_back(index.SchemaNodesContaining(k));
          sample.postings += index.ContainingList(k).size();
        }
      }
      std::vector<xk::cn::CandidateNetwork> networks;
      {
        ScopedSpan span(recorder_, "cn.generate", replay.id(), query_id);
        xk::cn::CnGeneratorOptions gen_options;
        gen_options.max_size = options_.max_size_z;
        xk::cn::CnGenerator generator(&xk_->schema(), gen_options);
        XK_ASSIGN_OR_RETURN(networks, generator.Generate(nodes));
      }
      sample.networks = networks.size();
      {
        ScopedSpan span(recorder_, "cn.reduce", replay.id(), query_id);
        for (const xk::cn::CandidateNetwork& network : networks) {
          if (xk::cn::ReduceToCtssn(network, xk_->schema(), xk_->tss()).ok()) {
            ++sample.kept;
          }
        }
      }
      sample.kept_matches_prepare = sample.kept == prepared.ctssns.size();
      {
        ScopedSpan span(recorder_, "opt.plan", replay.id(), query_id);
        XK_ASSIGN_OR_RETURN(const xk::decomp::Decomposition* d,
                            xk_->GetDecomposition(kDecomposition));
        xk::opt::Optimizer optimizer(&xk_->tss(), d, &xk_->catalog(), &xk_->objects());
        for (size_t i = 0; i < prepared.ctssns.size(); ++i) {
          XK_ASSIGN_OR_RETURN(xk::opt::CtssnPlan plan,
                              optimizer.Plan(prepared.ctssns[i], prepared.node_filters[i]));
          (void)plan;
          ++sample.plans;
        }
      }
    }
    std::vector<xk::present::Mtton> mttons;
    {
      ScopedSpan span(recorder_, "engine.execute", root.id(), query_id);
      XK_ASSIGN_OR_RETURN(mttons, Execute(prepared, &sample.stats));
    }
    xk::engine::DrainPageCounters(&sample.stats);
    sample.evictions = Evictions(*xk_) - evictions0;
    sample.stats.results = mttons.size();
    sample.digest =
        mode_ == QueryMode::kAll ? AnswerSetDigest(std::move(mttons)) : AnswerDigest(mttons);
  }
  if (twin_ != nullptr) {
    ScopedSpan root(recorder_, "storage.memory_replay", 0, query_id);
    XK_ASSIGN_OR_RETURN(xk::engine::PreparedQuery twin_prepared,
                        twin_->Prepare(keywords, kDecomposition, options_));
    ScopedSpan span(recorder_, "storage.memory_execute", root.id(), query_id);
    ExecutionStats unused;
    XK_ASSIGN_OR_RETURN(std::vector<xk::present::Mtton> mttons,
                        Execute(twin_prepared, &unused));
    (void)mttons;
  }
  return sample;
}

std::vector<Metric> LayerMetrics(const std::vector<Span>& spans,
                                 const std::vector<LayerSample>& samples) {
  const std::map<std::string, SpanTotals> totals = SpanRecorder::TotalsByName(spans);
  const double n = static_cast<double>(samples.size());
  auto per_query_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() || n == 0 ? 0.0 : it->second.total_ms / n;
  };
  double postings = 0, networks = 0, kept = 0, plans = 0, results = 0;
  double cache_hits = 0, cache_misses = 0, sub_hits = 0, sub_misses = 0;
  double probes = 0, rows = 0, bloom = 0, page_hits = 0, page_misses = 0;
  double read_bytes = 0, evictions = 0;
  for (const LayerSample& s : samples) {
    postings += static_cast<double>(s.postings);
    networks += static_cast<double>(s.networks);
    kept += static_cast<double>(s.kept);
    plans += static_cast<double>(s.plans);
    results += static_cast<double>(s.stats.results);
    cache_hits += static_cast<double>(s.stats.cache_hits);
    cache_misses += static_cast<double>(s.stats.cache_misses);
    sub_hits += static_cast<double>(s.stats.subplan_hits);
    sub_misses += static_cast<double>(s.stats.subplan_misses);
    probes += static_cast<double>(s.stats.probes.probes);
    rows += static_cast<double>(s.stats.probes.rows_scanned);
    bloom += static_cast<double>(s.stats.probes.bloom_skips);
    page_hits += static_cast<double>(s.stats.page_hits);
    page_misses += static_cast<double>(s.stats.page_misses);
    read_bytes += static_cast<double>(s.stats.page_read_bytes);
    evictions += static_cast<double>(s.evictions);
  }
  const double prepare = per_query_ms("engine.prepare");
  const double execute = per_query_ms("engine.execute");
  const double stages = per_query_ms("keyword.lookup") + per_query_ms("cn.generate") +
                        per_query_ms("cn.reduce") + per_query_ms("opt.plan");
  const bool twin = totals.contains("storage.memory_execute");
  return {
      {"keyword.lookup_ms", per_query_ms("keyword.lookup")},
      {"keyword.postings_per_query", Ratio(postings, n)},
      {"cn.generate_ms", per_query_ms("cn.generate")},
      {"cn.reduce_ms", per_query_ms("cn.reduce")},
      {"cn.networks_per_query", Ratio(networks, n)},
      {"cn.kept_ratio", Ratio(kept, networks)},
      {"opt.plan_ms", per_query_ms("opt.plan")},
      {"opt.plans_per_query", Ratio(plans, n)},
      {"engine.prepare_ms", prepare},
      {"engine.prepare_unexplained_ms", prepare - stages},
      {"engine.execute_ms", execute},
      {"engine.prepare_share", Ratio(prepare, prepare + execute)},
      {"engine.results_per_query", Ratio(results, n)},
      {"engine.partial_cache_hit_ratio", Ratio(cache_hits, cache_hits + cache_misses)},
      {"engine.subplan_hit_ratio", Ratio(sub_hits, sub_hits + sub_misses)},
      {"exec.probes_per_query", Ratio(probes, n)},
      {"exec.rows_scanned_per_query", Ratio(rows, n)},
      {"exec.rows_per_result", Ratio(rows, results)},
      {"exec.bloom_skip_ratio", Ratio(bloom, probes)},
      {"storage.page_hit_ratio", Ratio(page_hits, page_hits + page_misses)},
      {"storage.read_mb_per_query", Ratio(read_bytes / 1e6, n)},
      {"storage.evictions_per_query", Ratio(evictions, n)},
      {"storage.overhead_ms", twin ? execute - per_query_ms("storage.memory_execute") : 0.0},
  };
}

void PrintSpanTable(const std::vector<Span>& spans, size_t queries) {
  const std::map<std::string, SpanTotals> totals = SpanRecorder::TotalsByName(spans);
  const double n = queries == 0 ? 1 : static_cast<double>(queries);
  Note("span table over %zu queries (ms per query):", queries);
  Note("  %-26s %10s %10s %8s", "span", "self", "total", "count");
  for (const auto& [name, t] : totals) {
    Note("  %-26s %10.4f %10.4f %8llu", name.c_str(), t.self_ms / n, t.total_ms / n,
         static_cast<unsigned long long>(t.count));
  }
}

void PrintCounterRepeatability(const std::vector<LayerSample>& traced,
                               const std::vector<ExecutionStats>& second,
                               const std::vector<size_t>& result_counts) {
  struct Counter {
    const char* name;
    std::function<uint64_t(const ExecutionStats&)> get;
  };
  const std::vector<Counter> counters = {
      {"exec.probes", [](const ExecutionStats& s) { return s.probes.probes; }},
      {"exec.rows_scanned", [](const ExecutionStats& s) { return s.probes.rows_scanned; }},
      {"exec.bloom_skips", [](const ExecutionStats& s) { return s.probes.bloom_skips; }},
      {"engine.partial_cache_hits", [](const ExecutionStats& s) { return s.cache_hits; }},
      {"engine.partial_cache_misses", [](const ExecutionStats& s) { return s.cache_misses; }},
      {"engine.subplan_hits", [](const ExecutionStats& s) { return s.subplan_hits; }},
      {"engine.subplan_misses", [](const ExecutionStats& s) { return s.subplan_misses; }},
      {"storage.page_hits", [](const ExecutionStats& s) { return s.page_hits; }},
      {"storage.page_misses", [](const ExecutionStats& s) { return s.page_misses; }},
      {"storage.page_read_bytes", [](const ExecutionStats& s) { return s.page_read_bytes; }},
  };
  const size_t n = std::min(traced.size(), second.size());
  Note("counter repeatability (traced pass vs a second pass over the same %zu queries):", n);
  for (const Counter& c : counters) {
    size_t differ = 0;
    for (size_t i = 0; i < n; ++i) {
      if (c.get(traced[i].stats) != c.get(second[i])) ++differ;
    }
    Note("  %-30s %s", c.name,
         differ == 0 ? "exact"
                     : xk::StrFormat("varying (%zu of %zu queries differ)", differ, n).c_str());
  }
  size_t results_differ = 0, kept_differ = 0;
  for (size_t i = 0; i < n; ++i) {
    if (traced[i].stats.results != result_counts[i]) ++results_differ;
    if (!traced[i].kept_matches_prepare) ++kept_differ;
  }
  Note("  %-30s %s", "engine.results",
       results_differ == 0 ? "exact" : xk::StrFormat("varying (%zu differ)", results_differ).c_str());
  Note("  %-30s %s", "cn.kept (replay vs Prepare)",
       kept_differ == 0 ? "exact" : xk::StrFormat("varying (%zu differ)", kept_differ).c_str());
}

void WriteTrace(const Options& options, const SpanRecorder& recorder) {
  const std::string path = xk::StrFormat("%s/%s-seed%llu.jsonl", options.trace_dir.c_str(),
                                         options.workload.c_str(),
                                         static_cast<unsigned long long>(options.seed));
  if (recorder.WriteJsonLines(path)) {
    Note("spans written: %s", path.c_str());
  } else {
    Note("spans NOT written: cannot open %s", path.c_str());
  }
}

}  // namespace xkpb
