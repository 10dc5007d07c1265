/// \file live_mixed.cc
/// \brief live_mixed: 2 closed-loop clients against one spindle_serve
/// (--generate=20000, --threads=1, default compaction threshold,
/// auto-compaction on). Each operation is a write with probability
/// kWriteFraction, otherwise a top-10 keyword search.
///
/// Writes UPDATE or DELETE existing base docIDs (Zipf-skewed, so some
/// documents are rewritten often) or ADD new docIDs. Every write lands a
/// new document or deletion in the delta, so the delta grows to the
/// compaction threshold and background compaction runs many cycles in
/// every run; searches therefore always see the kernel with a deletion
/// mask plus the exhaustive delta lane, at delta sizes spread evenly over
/// the whole cycle. A stream that cancels itself (ADD then UPDATE then
/// DELETE of the same document) would leave the delta near empty and
/// measure a clean index instead.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "ingest/delta_index.h"
#include "ir/searcher.h"
#include "layers.h"
#include "server/line_server.h"
#include "obs/trace.h"
#include "workload/text_gen.h"

namespace perfbench {
namespace {

using spindle::Result;
using spindle::Status;
using spindle::ingest::WriteOp;

constexpr int kClients = 2;
/// The server's engine threads: searches run at --threads=1, and with
/// SPINDLE_THREADS=1 generation and background compaction run serially
/// too, on the one compaction thread beside the request threads.
constexpr int kServerThreads = 1;
constexpr size_t kTopK = 10;
constexpr double kWriteFraction = 0.5;
constexpr int kWarmQueries = 300;
constexpr int kCheckQueries = 100;
constexpr int64_t kNewDocBase = 10'000'000;
constexpr int kWriteLen = 16;

int64_t NumDocs(const Options& o) { return o.tiny ? 2000 : 20000; }

/// The write stream of one client. Client c owns the base docIDs with
/// (id − 1) mod kClients == c and the new docIDs it adds, so concurrent
/// clients never race on one document and every write is valid.
class WriteStream {
 public:
  WriteStream(int client, int64_t num_docs, int64_t vocab)
      : client_(client),
        owned_(num_docs / kClients),
        deleted_(static_cast<size_t>(owned_) + 1, false),
        doc_zipf_(static_cast<uint64_t>(owned_), 0.8),
        word_zipf_(static_cast<uint64_t>(vocab), 1.0) {}

  WriteOp Next(spindle::Rng& rng) {
    WriteOp op;
    const double u = rng.NextDouble();
    if (u < 0.7) {
      // UPDATE (u < 0.5) or DELETE a Zipf-chosen base document; one that
      // is currently deleted is added back instead.
      const uint64_t r = doc_zipf_.Sample(rng);
      op.doc_id = static_cast<int64_t>(r - 1) * kClients + client_ + 1;
      if (deleted_[r]) {
        op.kind = WriteOp::Kind::kAdd;
        deleted_[r] = false;
      } else if (u < 0.5) {
        op.kind = WriteOp::Kind::kUpdate;
      } else {
        op.kind = WriteOp::Kind::kDelete;
        deleted_[r] = true;
      }
    } else {
      op.kind = WriteOp::Kind::kAdd;
      op.doc_id = kNewDocBase + (added_++) * kClients + client_;
    }
    if (op.kind != WriteOp::Kind::kDelete) {
      op.text = spindle::RandomText(rng, word_zipf_, kWriteLen);
    }
    return op;
  }

 private:
  int client_;
  int64_t owned_;
  std::vector<bool> deleted_;
  spindle::ZipfSampler doc_zipf_;
  spindle::ZipfSampler word_zipf_;
  int64_t added_ = 0;
};

struct AckedWrite {
  uint64_t epoch = 0;
  WriteOp op;
};

Result<uint64_t> SendWrite(spindle::server::LineClient* client,
                           const WriteOp& op) {
  Result<spindle::server::WireResponse> r =
      op.kind == WriteOp::Kind::kAdd
          ? client->Add("docs", op.doc_id, op.text)
      : op.kind == WriteOp::Kind::kUpdate
          ? client->Update("docs", op.doc_id, op.text)
          : client->Delete("docs", op.doc_id);
  if (!r.ok()) return r.status();
  const auto& rows = r.ValueOrDie().rows;
  if (rows.empty() || rows[0].rfind("epoch=", 0) != 0) {
    return Status::Internal("write reply without epoch");
  }
  return static_cast<uint64_t>(std::strtoull(rows[0].c_str() + 6, nullptr, 10));
}

struct Server {
  std::unique_ptr<Child> child;
  int port = 0;
  void Stop() {
    if (child) child->Stop(port);
    child.reset();
  }
  ~Server() { Stop(); }
};

Status SetUp(const Options& o, const QueryGen& gen, Server* s,
             SetupPhases* phases) {
  const std::string port_file = o.work_dir + "/live.port";
  ::unlink(port_file.c_str());
  // build: the server generates and registers the collection before it
  // listens, so spawn → port file is the build.
  Clock::time_point t0 = Clock::now();
  SPINDLE_ASSIGN_OR_RETURN(
      s->child,
      Child::Spawn({PERFBENCH_SERVE_BIN,
                    "--generate=" + std::to_string(NumDocs(o)),
                    "--threads=1", "--port=0", "--port-file=" + port_file},
                   port_file + ".log",
                   {"SPINDLE_THREADS=" + std::to_string(kServerThreads)}));
  SPINDLE_ASSIGN_OR_RETURN(s->port,
                           WaitForPortFile(port_file, s->child.get(), 120000));
  phases->build_s = SecondsSince(t0);

  t0 = Clock::now();
  SPINDLE_RETURN_IF_ERROR(WaitHealthy(s->port, 60000));
  phases->start_s = SecondsSince(t0);

  // warm: the first search builds the index; the rest warm the caches.
  t0 = Clock::now();
  SPINDLE_ASSIGN_OR_RETURN(auto client, Connect(s->port));
  spindle::Rng rng = spindle::Rng(o.seed).Split(1000);
  for (int i = 0; i < kWarmQueries; ++i) {
    auto r = client->Search("docs", kTopK, 0, gen.Next(rng));
    if (!r.ok()) return r.status();
  }
  phases->warm_s = SecondsSince(t0);
  return Status::OK();
}

/// Shared state of the measured phases: per-client streams and the
/// acknowledged writes (in any order; sorted by epoch for the replay).
struct Streams {
  std::vector<std::unique_ptr<spindle::server::LineClient>> clients;
  std::vector<WriteStream> writes;
  std::vector<spindle::Rng> rngs;
  std::vector<std::vector<AckedWrite>> acked;
};

LoopStats Measure(const QueryGen& gen, double seconds, Streams* st,
                  LayerFold* fold) {
  std::vector<LayerFold> per_fold(kClients);
  LoopStats loop = RunClosedLoop(kClients, seconds, [&](int c, uint64_t) {
    OpResult r;
    const size_t ci = static_cast<size_t>(c);
    auto& client = st->clients[ci];
    if (client == nullptr) {
      r.ok = false;
      return r;
    }
    spindle::Rng& rng = st->rngs[ci];
    if (rng.NextDouble() < kWriteFraction) {
      r.is_write = true;
      WriteOp op = st->writes[ci].Next(rng);
      const Clock::time_point t0 = Clock::now();
      Result<uint64_t> epoch = SendWrite(client.get(), op);
      r.ms = MsSince(t0);
      r.ok = epoch.ok();
      if (r.ok) st->acked[ci].push_back({epoch.ValueOrDie(), std::move(op)});
      return r;
    }
    const std::string q = gen.Next(rng);
    if (fold == nullptr) {
      const Clock::time_point t0 = Clock::now();
      r.ok = client->Search("docs", kTopK, 0, q).ok();
      r.ms = MsSince(t0);
      return r;
    }
    // Traced: the bench's tracer is ambient, so the client sends the
    // tid= token and the server records this request's spans under the
    // bench's trace id, pullable afterwards.
    spindle::obs::Tracer tracer;
    {
      spindle::obs::ScopedTracer scope(&tracer);
      spindle::obs::Span span("perfbench", "request");
      const Clock::time_point t0 = Clock::now();
      r.ok = client->Search("docs", kTopK, 0, q).ok();
      r.ms = MsSince(t0);
    }
    if (!r.ok) return r;
    auto spans = PullTrace(client.get(), tracer.trace_id());
    if (!spans.ok()) {
      r.ok = false;
      return r;
    }
    per_fold[ci].AddRequest(spans.ValueOrDie(), r.ms);
    return r;
  });
  if (fold != nullptr) {
    for (const LayerFold& f : per_fold) fold->Merge(f);
  }
  return loop;
}

/// Mean of HEALTH's delta_docs sampled every 20 ms while `stop` is false.
class DeltaSampler {
 public:
  explicit DeltaSampler(int port) {
    thread_ = std::thread([this, port] {
      auto client = Connect(port);
      if (!client.ok()) return;
      while (!stop_.load()) {
        auto r = client.ValueOrDie()->Call("HEALTH");
        if (r.ok() && !r.ValueOrDie().rows.empty()) {
          const std::string& row = r.ValueOrDie().rows[0];
          const size_t at = row.find("delta_docs=");
          if (at != std::string::npos) {
            sum_ += std::atof(row.c_str() + at + 11);
            ++n_;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  double Finish() {
    stop_.store(true);
    thread_.join();
    return n_ > 0 ? sum_ / static_cast<double>(n_) : 0;
  }
  ~DeltaSampler() {
    if (thread_.joinable()) Finish();
  }

 private:
  std::atomic<bool> stop_{false};
  double sum_ = 0;
  uint64_t n_ = 0;
  std::thread thread_;
};

}  // namespace

Status RunLiveMixed(const Options& o, Report* report) {
  const int64_t vocab = VocabFor(NumDocs(o));
  const QueryGen gen(vocab);
  report->Context("docs", static_cast<double>(NumDocs(o)));
  // The request engine plus the background compaction thread.
  SPINDLE_RETURN_IF_ERROR(
      CheckThreads(o, kClients, kServerThreads + 1, report));
  report->Context("write_fraction", kWriteFraction);

  Server server;
  std::vector<SetupPhases> setups;
  const int reps = SetupRepetitions(o);
  for (int r = 0; r < reps; ++r) {
    SetupPhases p;
    SPINDLE_RETURN_IF_ERROR(SetUp(o, gen, &server, &p));
    setups.push_back(p);
    if (r + 1 < reps) server.Stop();
  }
  ReportSetup(setups, report);

  Streams st;
  for (int c = 0; c < kClients; ++c) {
    SPINDLE_ASSIGN_OR_RETURN(auto client, Connect(server.port));
    st.clients.push_back(std::move(client));
    st.writes.emplace_back(c, NumDocs(o), vocab);
    st.rngs.push_back(spindle::Rng(o.seed).Split(static_cast<uint64_t>(c)));
  }
  st.acked.resize(kClients);

  // Prime the write stream (untimed): run the mix until the first
  // compaction has installed, so every run measures the steady cycle of
  // growing delta and background compaction from the same phase instead
  // of a transient that starts from an empty delta.
  const Clock::time_point prime0 = Clock::now();
  for (;;) {
    LoopStats prime = Measure(gen, 0.25, &st, nullptr);
    if (prime.failed > 0) {
      report->attempted += prime.attempted;
      report->failed += prime.failed;
      report->Fail("write stream failed while priming");
      break;
    }
    SPINDLE_ASSIGN_OR_RETURN(Scrape s, ScrapeMetrics(server.port));
    if (Metric(s, "spindle_compactions_total") >= 1) break;
    if (SecondsSince(prime0) > 60) {
      return Status::DeadlineExceeded("no compaction after 60 s of writes");
    }
  }
  report->Context("stream_prime_s", SecondsSince(prime0));

  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  ResetPeakRss(server.child->pid());
  SPINDLE_ASSIGN_OR_RETURN(Scrape before, ScrapeMetrics(server.port));
  DeltaSampler sampler(server.port);
  LoopStats loop = Measure(gen, untraced_s, &st, nullptr);
  const double delta_mean = sampler.Finish();
  const double rss = PeakRssMb(server.child->pid());
  SPINDLE_ASSIGN_OR_RETURN(Scrape after, ScrapeMetrics(server.port));
  ReportLoop(loop, report);
  report->Set("rss_mb", rss, "MiB");
  const double compactions =
      Delta(before, after, "spindle_compactions_total");
  report->Context("compactions", compactions);
  report->Context("writes_acked",
                  static_cast<double>(loop.writes.size()));

  // Per-layer counters of the untraced phase.
  const double searches = static_cast<double>(loop.reads.size());
  const double ops = static_cast<double>(loop.attempted - loop.failed);
  report->Set("ingest.write_p50_ms", loop.writes.Median(), "ms");
  report->Set("ingest.compactions", compactions, "count");
  report->Set("ingest.delta_docs_mean", delta_mean, "count");
  report->Set("ingest.freshness_lag_us",
              MeanDelta(before, after, "spindle_freshness_lag_us"), "us");
  report->Set("ingest.writes_rejected",
              Delta(before, after, "spindle_writes_rejected_total"), "count");
  ReportServedCounters(before, after, searches, report);
  if (ops > 0) {
    // Served latency covers every request, searches and writes alike.
    const double rtt_mean =
        (loop.reads.Mean() * static_cast<double>(loop.reads.size()) +
         loop.writes.Mean() * static_cast<double>(loop.writes.size())) /
        ops;
    report->Set("net.unattributed_ms",
                rtt_mean - report->Get("server.request_ms"), "ms");
  }

  if (o.trace) {
    LayerFold fold;
    LoopStats traced = Measure(gen, o.seconds / 2, &st, &fold);
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
  }

  // Answer check: FLUSH, then sampled searches against a cold in-process
  // build of the generated collection plus every acknowledged write,
  // replayed in the order of the epochs the server returned.
  auto& client = st.clients[0];
  if (client == nullptr) return Status::Unavailable("client connection lost");
  ++report->attempted;
  if (!client->Flush("docs").ok()) report->Fail("FLUSH failed");
  std::vector<Sample> samples;
  spindle::Rng check_rng = spindle::Rng(o.seed).Split(2000);
  for (int i = 0; i < kCheckQueries; ++i) {
    Sample s;
    s.query = gen.Next(check_rng);
    auto r = client->Search("docs", kTopK, 0, s.query);
    if (!r.ok()) {
      ++report->attempted;
      report->Fail("check search failed: " + r.status().ToString());
      continue;
    }
    s.rows = r.ValueOrDie().rows;
    samples.push_back(std::move(s));
  }
  server.Stop();

  std::vector<AckedWrite> acked;
  for (auto& v : st.acked) {
    acked.insert(acked.end(), std::make_move_iterator(v.begin()),
                 std::make_move_iterator(v.end()));
  }
  std::sort(acked.begin(), acked.end(),
            [](const AckedWrite& a, const AckedWrite& b) {
              return a.epoch < b.epoch;
            });
  std::vector<WriteOp> ops_in_order;
  for (AckedWrite& w : acked) ops_in_order.push_back(std::move(w.op));
  spindle::TextCollectionOptions gopts;
  gopts.num_docs = NumDocs(o);
  gopts.vocab_size = vocab;
  gopts.avg_doc_len = 60;
  SPINDLE_ASSIGN_OR_RETURN(spindle::RelationPtr docs,
                           spindle::GenerateTextCollection(gopts));
  SPINDLE_ASSIGN_OR_RETURN(spindle::RelationPtr merged,
                           spindle::ingest::ApplyWritesCold(docs, ops_in_order));
  spindle::Searcher searcher;
  spindle::SearchOptions sopts;
  sopts.top_k = kTopK;
  CheckSamples(
      samples,
      [&](const std::string& q) -> Result<std::vector<std::string>> {
        SPINDLE_ASSIGN_OR_RETURN(spindle::RelationPtr rel,
                                 searcher.Search(merged, "cold", q, sopts));
        return spindle::server::SerializeRows(*rel);
      },
      o.corrupt_answer, report);

  report->Absent("ingest.compaction_ms",
                 "compaction wall time is not exported: LiveTable's "
                 "compaction_us reaches neither STATS nor METRICS");
  const char* bypass = "bypassed by live_mixed (single node, no SpinQL)";
  for (const char* m :
       {"shard.coord_self_ms", "shard.wait_ms",
        "shard.dispatch_unattributed_ms", "shard.skew_ms",
        "shard.pool_reuse_ratio", "shard.hedges_per_query",
        "storage.snapshot_mb", "spinql.compile_ms", "spinql.eval_ms",
        "spinql.index_misses", "spinql.fused_topk_ratio", "engine.join_ms",
        "engine.topk_ms", "engine.other_ms", "pra.self_ms",
        "engine.cache_hit_ratio", "engine.cache_evictions", "exec.self_ms",
        "exec.morsels_per_query", "exec.task_wait_us",
        "obs.trace_pull_ms"}) {
    report->Absent(m, bypass);
  }
  return Status::OK();
}

}  // namespace perfbench
