/// \file fleet_search.cc
/// \brief fleet_search: 2 closed-loop clients → spindle_coord → 3
/// spindle_serve shards started from --write-shards snapshots of a
/// generated 50k-doc collection. Top-10 keyword queries of 1–4 terms.
/// Each shard executes one query at a time (--threads=1
/// --max-inflight=1; the other client's dispatch queues in admission), so
/// the runnable threads of the fleet stay within nproc.
///
/// Exercises the shard layer (scatter, gather, merge), the line protocol
/// and the fused pruning kernel over compressed, memory-mapped postings.
/// ingest, spinql/engine and exec parallelism do no work here.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"
#include "ir/searcher.h"
#include "layers.h"
#include "server/line_server.h"
#include "storage/catalog.h"
#include "workload/text_gen.h"

namespace perfbench {
namespace {

using spindle::Result;
using spindle::Status;

constexpr int kShards = 3;
constexpr int kClients = 2;
constexpr size_t kTopK = 10;
constexpr int kWarmQueries = 300;
/// Every kSampleEvery-th reply of each client is kept for the answer check.
constexpr uint64_t kSampleEvery = 64;
constexpr size_t kMaxSamplesPerClient = 100;

int64_t NumDocs(const Options& o) { return o.tiny ? 3000 : 50000; }

/// The running fleet: shards, the untraced coordinator and (trace runs)
/// a second, traced coordinator over the same shards.
struct Fleet {
  std::vector<std::unique_ptr<Child>> shards;
  std::vector<int> shard_ports;
  std::unique_ptr<Child> coord;
  int coord_port = 0;
  std::unique_ptr<Child> traced_coord;
  int traced_port = 0;

  void Stop() {
    if (traced_coord) traced_coord->Stop(traced_port);
    if (coord) coord->Stop(coord_port);
    for (size_t i = 0; i < shards.size(); ++i) {
      shards[i]->Stop(shard_ports[i]);
    }
    traced_coord.reset();
    coord.reset();
    shards.clear();
    shard_ports.clear();
  }
  ~Fleet() { Stop(); }
};

std::string Prefix(const Options& o) { return o.work_dir + "/fleet"; }

std::string ShardSnap(const Options& o, int i) {
  return Prefix(o) + ".shard" + std::to_string(i) + ".snap";
}

Result<std::unique_ptr<Child>> StartCoordinator(const Options& o,
                                                const Fleet& f,
                                                bool traced, int* port) {
  std::string shards;
  for (int p : f.shard_ports) {
    if (!shards.empty()) shards += ",";
    shards += "127.0.0.1:" + std::to_string(p);
  }
  const std::string name = traced ? "coord_traced" : "coord";
  const std::string port_file = o.work_dir + "/" + name + ".port";
  ::unlink(port_file.c_str());
  std::vector<std::string> argv = {PERFBENCH_COORD_BIN, "--shards=" + shards,
                                   "--port=0", "--port-file=" + port_file};
  if (traced) {
    argv.push_back("--trace=1");
    argv.push_back("--trace-file=" + o.work_dir + "/coord_trace.json");
  }
  SPINDLE_ASSIGN_OR_RETURN(
      auto child, Child::Spawn(argv, port_file + ".log", {}));
  SPINDLE_ASSIGN_OR_RETURN(*port,
                           WaitForPortFile(port_file, child.get(), 60000));
  SPINDLE_RETURN_IF_ERROR(WaitHealthy(*port, 60000));
  return child;
}

Status Warm(int port, const QueryGen& gen, uint64_t seed, int n) {
  SPINDLE_ASSIGN_OR_RETURN(auto client, Connect(port));
  spindle::Rng rng = spindle::Rng(seed).Split(1000);
  for (int i = 0; i < n; ++i) {
    auto r = client->Search("docs", kTopK, 0, gen.Next(rng));
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

/// One full setup: build the shard snapshots, start the fleet, warm it.
Status SetUp(const Options& o, const QueryGen& gen, Fleet* f,
             SetupPhases* phases) {
  const std::vector<std::string> serial = {"SPINDLE_THREADS=1"};
  for (int i = 0; i < kShards; ++i) ::unlink(ShardSnap(o, i).c_str());

  Clock::time_point t0 = Clock::now();
  {
    SPINDLE_ASSIGN_OR_RETURN(
        auto build,
        Child::Spawn({PERFBENCH_SERVE_BIN,
                      "--generate=" + std::to_string(NumDocs(o)),
                      "--num-shards=" + std::to_string(kShards),
                      "--write-shards=" + Prefix(o)},
                     o.work_dir + "/write_shards.log", serial));
    const int status = build->Wait(150000);
    if (status != 0) {
      return Status::Internal("--write-shards failed (status " +
                              std::to_string(status) + "); see " +
                              o.work_dir + "/write_shards.log");
    }
  }
  phases->build_s = SecondsSince(t0);

  t0 = Clock::now();
  for (int i = 0; i < kShards; ++i) {
    const std::string port_file =
        o.work_dir + "/shard" + std::to_string(i) + ".port";
    ::unlink(port_file.c_str());
    SPINDLE_ASSIGN_OR_RETURN(
        auto shard,
        Child::Spawn({PERFBENCH_SERVE_BIN, "--snapshot=" + ShardSnap(o, i),
                      "--threads=1", "--max-inflight=1", "--port=0",
                      "--port-file=" + port_file},
                     port_file + ".log", serial));
    f->shards.push_back(std::move(shard));
    SPINDLE_ASSIGN_OR_RETURN(
        int port, WaitForPortFile(port_file, f->shards.back().get(), 60000));
    f->shard_ports.push_back(port);
  }
  for (int port : f->shard_ports) {
    SPINDLE_RETURN_IF_ERROR(WaitHealthy(port, 60000));
  }
  SPINDLE_ASSIGN_OR_RETURN(f->coord,
                           StartCoordinator(o, *f, false, &f->coord_port));
  phases->start_s = SecondsSince(t0);

  t0 = Clock::now();
  SPINDLE_RETURN_IF_ERROR(Warm(f->coord_port, gen, o.seed, kWarmQueries));
  phases->warm_s = SecondsSince(t0);
  return Status::OK();
}

double SumFamily(const Scrape& s, const std::string& name) {
  double v = 0;
  for (const auto& [k, x] : s) {
    if (k == name || k.rfind(name + "{", 0) == 0) v += x;
  }
  return v;
}

/// The shards' METRICS, summed over the shards.
Result<Scrape> ScrapeShards(const Fleet& f) {
  std::vector<Scrape> each;
  for (int port : f.shard_ports) {
    SPINDLE_ASSIGN_OR_RETURN(Scrape s, ScrapeMetrics(port));
    each.push_back(std::move(s));
  }
  return SumScrapes(each);
}

/// The measured closed loop against `port`. With `fold`, every reply's
/// merged coordinator + shard trace is pulled (untimed) and folded.
LoopStats Measure(int port, const QueryGen& gen, const Options& o,
                  double seconds, uint64_t stream,
                  std::vector<Sample>* samples, LayerFold* fold) {
  std::vector<std::unique_ptr<spindle::server::LineClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto cl = Connect(port);
    clients.push_back(cl.ok() ? cl.MoveValueOrDie() : nullptr);
  }
  std::vector<spindle::Rng> rngs;
  for (int c = 0; c < kClients; ++c) {
    rngs.push_back(spindle::Rng(o.seed).Split(stream + c));
  }
  std::vector<std::vector<Sample>> per_samples(kClients);
  std::vector<LayerFold> per_fold(kClients);
  LoopStats loop = RunClosedLoop(kClients, seconds, [&](int c, uint64_t i) {
    OpResult r;
    auto& client = clients[static_cast<size_t>(c)];
    if (client == nullptr) {
      r.ok = false;
      return r;
    }
    const std::string q = gen.Next(rngs[static_cast<size_t>(c)]);
    const Clock::time_point t0 = Clock::now();
    auto resp = client->Search("docs", kTopK, 0, q);
    r.ms = MsSince(t0);
    if (!resp.ok() || resp.ValueOrDie().partial) {
      r.ok = false;
      if (client->broken()) client.reset();
      return r;
    }
    std::vector<Sample>& mine = per_samples[static_cast<size_t>(c)];
    if (samples != nullptr && i % kSampleEvery == 0 &&
        mine.size() < kMaxSamplesPerClient) {
      mine.push_back({q, resp.ValueOrDie().rows});
    }
    if (fold != nullptr) {
      auto spans = PullTrace(client.get(), resp.ValueOrDie().trace_id);
      if (!spans.ok()) {
        r.ok = false;
        return r;
      }
      per_fold[static_cast<size_t>(c)].AddRequest(spans.ValueOrDie(), r.ms);
    }
    return r;
  });
  for (int c = 0; c < kClients; ++c) {
    if (samples != nullptr) {
      samples->insert(samples->end(), per_samples[c].begin(),
                      per_samples[c].end());
    }
    if (fold != nullptr) fold->Merge(per_fold[c]);
  }
  return loop;
}

/// Per-layer counters of the untraced phase, from METRICS diffs.
void ReportCounters(const Scrape& shards_before, const Scrape& shards_after,
                    const Scrape& coord_before, const Scrape& coord_after,
                    LoopStats& loop, Report* report) {
  const double queries =
      static_cast<double>(loop.attempted - loop.failed);
  if (queries <= 0) return;
  ReportServedCounters(shards_before, shards_after, queries, report);
  const double coord_ms =
      MeanDelta(coord_before, coord_after,
                "spindle_coord_request_latency_us") /
      1000;
  report->Set("net.unattributed_ms", loop.reads.Mean() - coord_ms, "ms");
  const double reuses =
      SumFamily(coord_after, "spindle_coord_pool_reuses_total") -
      SumFamily(coord_before, "spindle_coord_pool_reuses_total");
  const double dials =
      SumFamily(coord_after, "spindle_coord_pool_dials_total") -
      SumFamily(coord_before, "spindle_coord_pool_dials_total");
  report->Set("shard.pool_reuse_ratio",
              reuses + dials > 0 ? reuses / (reuses + dials) : 0, "ratio");
  report->Set("shard.hedges_per_query",
              Delta(coord_before, coord_after,
                    "spindle_coord_hedges_issued_total") /
                  queries,
              "count");
}

}  // namespace

Status RunFleetSearch(const Options& o, Report* report) {
  const QueryGen gen(VocabFor(NumDocs(o)));
  report->Context("docs", static_cast<double>(NumDocs(o)));
  report->Context("shards", kShards);
  // One engine thread per shard.
  SPINDLE_RETURN_IF_ERROR(CheckThreads(o, kClients, kShards, report));

  Fleet fleet;
  std::vector<SetupPhases> setups;
  const int reps = SetupRepetitions(o);
  for (int r = 0; r < reps; ++r) {
    SetupPhases p;
    SPINDLE_RETURN_IF_ERROR(SetUp(o, gen, &fleet, &p));
    setups.push_back(p);
    if (r + 1 < reps) fleet.Stop();
  }
  ReportSetup(setups, report);

  double snapshot_bytes = 0;
  for (int i = 0; i < kShards; ++i) {
    struct stat st;
    if (::stat(ShardSnap(o, i).c_str(), &st) == 0) {
      snapshot_bytes += static_cast<double>(st.st_size);
    }
  }
  report->Set("storage.snapshot_mb", snapshot_bytes / (1024.0 * 1024.0),
              "MiB");

  std::vector<Sample> samples;
  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  for (auto& s : fleet.shards) ResetPeakRss(s->pid());
  ResetPeakRss(fleet.coord->pid());
  SPINDLE_ASSIGN_OR_RETURN(auto shards_before, ScrapeShards(fleet));
  SPINDLE_ASSIGN_OR_RETURN(Scrape coord_before,
                           ScrapeMetrics(fleet.coord_port));
  LoopStats loop = Measure(fleet.coord_port, gen, o, untraced_s, 0, &samples,
                           nullptr);
  double rss = 0;
  for (auto& s : fleet.shards) rss += PeakRssMb(s->pid());
  rss += PeakRssMb(fleet.coord->pid());
  SPINDLE_ASSIGN_OR_RETURN(auto shards_after, ScrapeShards(fleet));
  SPINDLE_ASSIGN_OR_RETURN(Scrape coord_after,
                           ScrapeMetrics(fleet.coord_port));
  ReportLoop(loop, report);
  report->Set("rss_mb", rss, "MiB");
  ReportCounters(shards_before, shards_after, coord_before, coord_after, loop,
                 report);

  if (o.trace) {
    SPINDLE_ASSIGN_OR_RETURN(
        fleet.traced_coord,
        StartCoordinator(o, fleet, true, &fleet.traced_port));
    SPINDLE_RETURN_IF_ERROR(Warm(fleet.traced_port, gen, o.seed, 50));
    LayerFold fold;
    LoopStats traced = Measure(fleet.traced_port, gen, o, o.seconds / 2,
                               100, &samples, &fold);
    report->attempted += traced.attempted;
    report->failed += traced.failed;
    if (traced.failed > 0) report->correct = false;
    fold.ReportLayers(report);
    const double untraced_p50 = loop.P50();
    report->Set("obs.trace_overhead_pct",
                untraced_p50 > 0
                    ? 100.0 * (traced.P50() - untraced_p50) /
                          untraced_p50
                    : 0,
                "%");
    report->Context("trace_file", o.work_dir + "/coord_trace.json");
  }
  fleet.Stop();
  for (int i = 0; i < kShards; ++i) ::unlink(ShardSnap(o, i).c_str());

  // Answer check: a single-node Searcher over the full collection.
  spindle::TextCollectionOptions gopts;
  gopts.num_docs = NumDocs(o);
  gopts.vocab_size = VocabFor(NumDocs(o));
  gopts.avg_doc_len = 60;
  SPINDLE_ASSIGN_OR_RETURN(spindle::RelationPtr docs,
                           spindle::GenerateTextCollection(gopts));
  spindle::Searcher searcher;
  spindle::SearchOptions sopts;
  sopts.top_k = kTopK;
  CheckSamples(
      samples,
      [&](const std::string& q) -> Result<std::vector<std::string>> {
        SPINDLE_ASSIGN_OR_RETURN(spindle::RelationPtr rel,
                                 searcher.Search(docs, "full", q, sopts));
        return spindle::server::SerializeRows(*rel);
      },
      o.corrupt_answer, report);

  const char* absent = "bypassed by fleet_search (no SpinQL, cache or writes)";
  for (const char* m :
       {"spinql.compile_ms", "spinql.eval_ms", "spinql.index_misses",
        "spinql.fused_topk_ratio", "engine.join_ms", "engine.topk_ms",
        "engine.other_ms", "pra.self_ms", "engine.cache_hit_ratio",
        "engine.cache_evictions", "exec.self_ms", "exec.morsels_per_query",
        "exec.task_wait_us", "ingest.write_p50_ms", "ingest.compactions",
        "ingest.compaction_ms", "ingest.delta_docs_mean",
        "ingest.freshness_lag_us", "ingest.writes_rejected"}) {
    report->Absent(m, absent);
  }
  return Status::OK();
}

}  // namespace perfbench
