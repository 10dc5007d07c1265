/// \file strategy_graph.cc
/// \brief strategy_graph: one in-process closed-loop client runs the
/// 5-branch production strategy with synonym expansion
/// (strategy::MakeProductionStrategy) through StrategyExecutor over a
/// generated 20k-lot auction graph, with engine threads = nproc and a
/// materialization cache of kCacheBudget bytes. Queries are drawn
/// Zipf-skewed from a fixed pool of kPoolSize generated auction queries
/// (see ZipfSchedule).
///
/// Exercises spinql/pra/engine operators, the materialization cache and
/// the scheduler's morsel parallelism; server, shard and ingest are
/// bypassed. Every Run registers a fresh query table, so query-dependent
/// plan nodes never hit the cache and keep filling it: the warm-up runs
/// until the cache holds its budget, so every measured request sees a
/// full cache that evicts (one memory regime, not two).

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "engine/materialization_cache.h"
#include "exec/exec_context.h"
#include "harness.h"
#include "layers.h"
#include "server/line_server.h"
#include "obs/trace.h"
#include "spinql/optimizer.h"
#include "storage/catalog.h"
#include "strategy/prebuilt.h"
#include "workload/graph_gen.h"

namespace perfbench {
namespace {

using spindle::Result;
using spindle::Status;

constexpr size_t kCacheBudget = 64ull << 20;
constexpr int kPoolSize = 256;
constexpr double kScheduleBlock = 1024;
constexpr int kMinWarmRuns = 20;
constexpr int kMaxWarmRuns = 2000;
constexpr uint64_t kSampleEvery = 8;
constexpr size_t kMaxSamples = 100;

int64_t NumLots(const Options& o) { return o.tiny ? 1000 : 20000; }

spindle::AuctionGraphOptions GraphOptions(const Options& o) {
  spindle::AuctionGraphOptions g;
  g.num_lots = NumLots(o);
  g.num_auctions = std::max<int64_t>(2, g.num_lots / 100);
  return g;
}

/// One set-up instance: catalog, cache, executor, compiled strategy.
struct Instance {
  spindle::Catalog catalog;
  std::unique_ptr<spindle::MaterializationCache> cache;
  std::unique_ptr<spindle::strategy::StrategyExecutor> executor;
  spindle::strategy::Strategy strategy;
};

Status SetUp(const Options& o, const std::vector<std::string>& pool,
             std::unique_ptr<Instance>* out, SetupPhases* phases) {
  auto inst = std::make_unique<Instance>();
  // build: graph generation and registration, serial.
  spindle::ExecContext::SetDefaultThreads(1);
  Clock::time_point t0 = Clock::now();
  SPINDLE_ASSIGN_OR_RETURN(spindle::TripleStore store,
                           spindle::GenerateAuctionGraph(GraphOptions(o)));
  SPINDLE_RETURN_IF_ERROR(store.RegisterInto(inst->catalog));
  phases->build_s = SecondsSince(t0);

  // start: cache, executor and the compiled strategy.
  spindle::ExecContext::SetDefaultThreads(o.nproc);
  t0 = Clock::now();
  inst->cache = std::make_unique<spindle::MaterializationCache>(kCacheBudget);
  inst->executor = std::make_unique<spindle::strategy::StrategyExecutor>(
      &inst->catalog, inst->cache.get());
  SPINDLE_ASSIGN_OR_RETURN(inst->strategy,
                           spindle::strategy::MakeProductionStrategy());
  SPINDLE_RETURN_IF_ERROR(inst->strategy.Compile().status());
  phases->start_s = SecondsSince(t0);

  // warm: the first runs build the on-demand indexes; continue until the
  // cache is at its budget (or a fixed cap for tiny collections).
  t0 = Clock::now();
  for (int i = 0; i < kMaxWarmRuns; ++i) {
    SPINDLE_RETURN_IF_ERROR(
        inst->executor->Run(inst->strategy, pool[i % pool.size()]).status());
    const auto cs = inst->cache->stats();
    if (i + 1 >= kMinWarmRuns && cs.evictions > 0) break;
  }
  phases->warm_s = SecondsSince(t0);
  *out = std::move(inst);
  return Status::OK();
}

/// Zipf(1.0)-skewed draws over the pool, stratified: every block of
/// kScheduleBlock draws holds query r about kScheduleBlock·p(r) times (at
/// least once), in an order shuffled by the seed. Every part of a run
/// then sees nearly the same query mix, which independent draws would
/// only give on average.
std::vector<size_t> ZipfSchedule(size_t pool, uint64_t seed) {
  double h = 0;
  for (size_t r = 1; r <= pool; ++r) h += 1.0 / static_cast<double>(r);
  std::vector<size_t> out;
  for (size_t r = 1; r <= pool; ++r) {
    const double share = kScheduleBlock / (static_cast<double>(r) * h);
    const size_t n = std::max<size_t>(1, static_cast<size_t>(std::llround(share)));
    out.insert(out.end(), n, r - 1);
  }
  spindle::Rng rng = spindle::Rng(seed).Split(7);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.NextBounded(i)]);
  }
  return out;
}

}  // namespace

Status RunStrategyGraph(const Options& o, Report* report) {
  report->Context("lots", static_cast<double>(NumLots(o)));
  SPINDLE_RETURN_IF_ERROR(CheckThreads(o, 1, o.nproc, report));
  report->Context("cache_budget_mb", static_cast<double>(kCacheBudget >> 20));

  // The pool is the generator's fixed query set; --seed drives the draws,
  // so every seed sees the same mix of cheap and expensive queries.
  const std::vector<std::string> pool =
      spindle::GenerateAuctionQueries(GraphOptions(o), kPoolSize, 3);

  std::unique_ptr<Instance> inst;
  std::vector<SetupPhases> setups;
  const int reps = SetupRepetitions(o);
  for (int r = 0; r < reps; ++r) {
    inst.reset();
    SetupPhases p;
    SPINDLE_RETURN_IF_ERROR(SetUp(o, pool, &inst, &p));
    setups.push_back(p);
  }
  ReportSetup(setups, report);
  auto& executor = *inst->executor;
  auto& cache = *inst->cache;

  const std::vector<size_t> schedule = ZipfSchedule(pool.size(), o.seed);
  size_t next = 0;
  auto draw = [&]() -> const std::string& {
    return pool[schedule[next++ % schedule.size()]];
  };
  std::vector<Sample> samples;
  const auto eval0 = executor.evaluator().stats();
  const auto cache0 = cache.stats();
  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  malloc_trim(0);  // heap the earlier set-ups freed
  ResetPeakRss(0);
  LoopStats loop = RunClosedLoop(1, untraced_s, [&](int, uint64_t i) {
    OpResult r;
    const std::string& q = draw();
    const Clock::time_point t0 = Clock::now();
    auto hits = executor.Run(inst->strategy, q);
    r.ms = MsSince(t0);
    r.ok = hits.ok();
    if (r.ok && i % kSampleEvery == 0 && samples.size() < kMaxSamples) {
      samples.push_back({q, spindle::server::SerializeRows(*hits.ValueOrDie().rel())});
    }
    return r;
  });
  const double rss = PeakRssMb(0);
  const auto eval1 = executor.evaluator().stats();
  const auto cache1 = cache.stats();
  ReportLoop(loop, report);
  report->Set("rss_mb", rss, "MiB");
  report->Context("cache_mb",
                  static_cast<double>(cache1.bytes_cached) / (1 << 20));

  const double lookups = static_cast<double>((cache1.hits - cache0.hits) +
                                             (cache1.misses - cache0.misses));
  report->Set("engine.cache_hit_ratio",
              lookups > 0
                  ? static_cast<double>(cache1.hits - cache0.hits) / lookups
                  : 0,
              "ratio");
  report->Set("engine.cache_evictions",
              static_cast<double>(cache1.evictions - cache0.evictions),
              "count");
  report->Set("spinql.index_misses",
              static_cast<double>(eval1.index_misses - eval0.index_misses),
              "count");

  if (o.trace) {
    // The traced request runs the same steps as StrategyExecutor::Run,
    // split so compile (+ optimize) and evaluation are timed apart.
    LayerFold fold;
    Latencies eval_ms;
    const auto fused0 = executor.evaluator().stats().fused_topk_ranks;
    LoopStats traced = RunClosedLoop(1, o.seconds / 2, [&](int, uint64_t) {
      OpResult r;
      const std::string& q = draw();
      spindle::obs::Tracer tracer;
      {
        spindle::obs::ScopedTracer scope(&tracer);
        const Clock::time_point t0 = Clock::now();
        {
          spindle::obs::Span root("perfbench", "request");
          Result<spindle::spinql::Program> program =
              Status::Internal("not compiled");
          {
            spindle::obs::Span compile("perfbench", "compile");
            auto raw = inst->strategy.Compile();
            program = raw.ok() ? spindle::spinql::OptimizeProgram(
                                     raw.ValueOrDie(), nullptr)
                               : raw;
          }
          r.ok = program.ok();
          if (r.ok) {
            spindle::obs::Span eval("perfbench", "eval");
            const Clock::time_point e0 = Clock::now();
            executor.set_optimize(false);
            r.ok = executor.RunProgram(program.ValueOrDie(), q).ok();
            executor.set_optimize(true);
            eval_ms.Add(MsSince(e0));
          }
        }
        r.ms = MsSince(t0);
      }
      if (r.ok) fold.AddRequest(tracer.Snapshot(), r.ms);
      return r;
    });
    report->attempted += traced.attempted;
    report->failed += traced.failed;
    if (traced.failed > 0) report->correct = false;
    fold.ReportLayers(report);
    report->Set("spinql.compile_ms", fold.MeanSelfMs({"perfbench/compile"}),
                "ms");
    report->Set("spinql.eval_ms", eval_ms.Mean(), "ms");
    const double topk_nodes =
        fold.MeanCount("spinql/topk") * static_cast<double>(fold.requests());
    const double fused = static_cast<double>(
        executor.evaluator().stats().fused_topk_ranks - fused0);
    if (topk_nodes > 0) {
      report->Set("spinql.fused_topk_ratio", fused / topk_nodes, "ratio");
    } else {
      report->Absent("spinql.fused_topk_ratio",
                     "no TOPK node was evaluated");
    }
    const double untraced_p50 = loop.P50();
    report->Set("obs.trace_overhead_pct",
                untraced_p50 > 0
                    ? 100.0 * (traced.P50() - untraced_p50) /
                          untraced_p50
                    : 0,
                "%");
  }

  // Answer check: the same strategy through an evaluator with no cache.
  spindle::strategy::StrategyExecutor uncached(&inst->catalog, nullptr);
  CheckSamples(
      samples,
      [&](const std::string& q) -> Result<std::vector<std::string>> {
        SPINDLE_ASSIGN_OR_RETURN(spindle::ProbRelation hits,
                                 uncached.Run(inst->strategy, q));
        return spindle::server::SerializeRows(*hits.rel());
      },
      o.corrupt_answer, report);

  const char* bypass =
      "bypassed by strategy_graph (in-process: no server, shard or writes)";
  for (const char* m :
       {"net.unattributed_ms", "server.request_ms", "server.queue_wait_us",
        "server.shed", "server.self_ms", "server.admission_ms",
        "shard.coord_self_ms", "shard.wait_ms",
        "shard.dispatch_unattributed_ms", "shard.skew_ms",
        "shard.pool_reuse_ratio", "shard.hedges_per_query",
        "ir.docs_scored_per_query", "ir.skip_ratio",
        "storage.blocks_decoded_per_query", "storage.block_skip_ratio",
        "storage.decode_bytes_per_query", "storage.mapped_mb",
        "storage.heap_mb", "storage.compressed_mb", "storage.snapshot_mb",
        "ingest.write_p50_ms", "ingest.compactions", "ingest.compaction_ms",
        "ingest.delta_docs_mean", "ingest.freshness_lag_us",
        "ingest.writes_rejected", "obs.trace_pull_ms"}) {
    report->Absent(m, bypass);
  }
  return Status::OK();
}

}  // namespace perfbench
