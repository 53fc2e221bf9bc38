// Traced per-layer decomposition of one query, measured from outside the
// library by timing calls into each module's public functions:
//
//   query                       (root, one per query)
//     engine.prepare            XKeyword::Prepare
//     prepare.replay            the Prepare stages, re-issued on its inputs:
//       keyword.lookup            MasterIndex::SchemaNodesContaining + ContainingList
//       cn.generate               CnGenerator::Generate
//       cn.reduce                 cn::ReduceToCtssn per candidate network
//       opt.plan                  opt::Optimizer::Plan per CTSSN (prepared filters)
//     engine.execute            TopKExecutor::Run / FullExecutor::Run
//   storage.memory_replay       (root, disk workloads only)
//     storage.memory_execute    the same execution on a memory-backend twin
//
// The replayed stages run after Prepare, on warm caches; what Prepare spends
// beyond them (filter sets, glue) shows as engine.prepare_unexplained_ms.

#ifndef XK_PERFBENCH_LAYER_TRACE_H_
#define XK_PERFBENCH_LAYER_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/query_request.h"
#include "engine/xkeyword.h"
#include "query_gen.h"
#include "span_recorder.h"
#include "workloads.h"

namespace xkpb {

/// Counts of one traced query.
struct LayerSample {
  uint64_t postings = 0;
  uint64_t networks = 0;  // candidate networks generated
  uint64_t kept = 0;      // reduced to a CTSSN
  uint64_t plans = 0;
  bool kept_matches_prepare = true;
  xk::engine::ExecutionStats stats;  // executor counters + page counters
  uint64_t evictions = 0;
  uint64_t digest = 0;
};

class LayerTracer {
 public:
  /// `twin` (may be null): a memory-backend engine over the same database,
  /// replayed after each query for storage.overhead_ms.
  LayerTracer(const xk::engine::XKeyword* xk, xk::engine::QueryMode mode,
              xk::engine::QueryOptions options, SpanRecorder* recorder,
              const xk::engine::XKeyword* twin = nullptr);

  xk::Result<LayerSample> Run(uint64_t query_id, const Keywords& keywords);

 private:
  xk::Result<std::vector<xk::present::Mtton>> Execute(
      const xk::engine::PreparedQuery& prepared, xk::engine::ExecutionStats* stats);

  const xk::engine::XKeyword* xk_;
  xk::engine::QueryMode mode_;
  xk::engine::QueryOptions options_;
  SpanRecorder* recorder_;
  const xk::engine::XKeyword* twin_;
};

/// Per-layer metrics of a traced pass: times are means per query over the
/// spans, counts are per query, ratios are sums over sums.
std::vector<Metric> LayerMetrics(const std::vector<Span>& spans,
                                 const std::vector<LayerSample>& samples);

/// Prints per-span self and total time per query.
void PrintSpanTable(const std::vector<Span>& spans, size_t queries);

/// Compares every per-query count of a traced pass with a second,
/// untraced pass over the same queries and prints each as exact or
/// varying.
void PrintCounterRepeatability(const std::vector<LayerSample>& traced,
                               const std::vector<xk::engine::ExecutionStats>& second,
                               const std::vector<size_t>& result_counts);

/// Writes `recorder`'s spans to <trace_dir>/<workload>-seed<seed>.jsonl.
void WriteTrace(const Options& options, const SpanRecorder& recorder);

}  // namespace xkpb

#endif  // XK_PERFBENCH_LAYER_TRACE_H_
