/// \file harness.h
/// \brief Shared machinery of the spindle_perfbench load generator:
/// options, the result report, child-process control for the served
/// workloads, METRICS scraping, latency statistics and the closed loop.

#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "obs/trace.h"
#include "server/client.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);
double MsSince(Clock::time_point t0);

/// \brief Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test sizes (a few thousand documents, one setup) for the
  /// benchmark's own tests; never used for reported numbers.
  bool tiny = false;
  /// Self-test hook: corrupt one sampled reference answer so the answer
  /// check must fail.
  bool corrupt_answer = false;
  /// Scratch directory for snapshots, port files, server logs and traces.
  std::string work_dir;
  std::string git_sha = "unknown";
  int nproc = 1;
};

/// \brief Everything one run prints: counts, metrics, context stamp and
/// the reasons for per-layer metrics a workload does not exercise.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Absent(const std::string& name, const std::string& reason);
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);
  double Get(const std::string& name) const;

  /// A wrong, refused or errored answer: counted, and the run is marked
  /// incorrect.
  void Fail(const std::string& what);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  /// Prints the context and metric table, then the one-line JSON result
  /// (last line of stdout). `trace` selects the per-layer metric set.
  void Print(bool trace) const;

 private:
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::string> absent_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> failures_;
};

/// \brief Metric catalogue: every end-to-end metric, then every per-layer
/// metric, with units. BENCHMARK.json lists the same names.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// glibc's mmap threshold, fixed in every measured process (mallopt here,
/// MALLOC_MMAP_THRESHOLD_ for spawned servers). glibc otherwise raises it
/// after large frees, and whether the big relations and indexes a cache
/// eviction or a compaction frees go back to the OS or stay in the heap
/// then depends on history: rss_mb came out bimodal from run to run
/// (strategy_graph 335 vs 395 MiB, live_mixed 376 vs 510 MiB).
constexpr int kMmapThreshold = 1 << 20;

/// \brief A spawned server process. The destructor stops it (SIGTERM,
/// then SIGKILL after a grace period) and reaps it, so no exit path of
/// the benchmark leaves a server behind; the child also dies with the
/// benchmark (PR_SET_PDEATHSIG).
class Child {
 public:
  static spindle::Result<std::unique_ptr<Child>> Spawn(
      const std::vector<std::string>& argv, const std::string& log_path,
      const std::vector<std::string>& extra_env);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  /// Non-blocking: false once the process has exited (and was reaped).
  bool Running();
  /// Waits up to `timeout_ms` for exit; returns the exit status or -1.
  int Wait(int64_t timeout_ms);
  /// Sends SHUTDOWN over the wire when `port` > 0, then stops the
  /// process as the destructor does.
  void Stop(int port);

 private:
  explicit Child(pid_t pid) : pid_(pid) {}
  pid_t pid_ = -1;
  bool reaped_ = false;
  int status_ = -1;
};

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB.
double PeakRssMb(pid_t pid);
/// Resets the peak-RSS counter of `pid` (0 = this process), so a later
/// VmHWM covers only what follows: the timed phase, not the set-up.
void ResetPeakRss(pid_t pid);

/// Polls for a `--port-file` written by a starting server.
spindle::Result<int> WaitForPortFile(const std::string& path, Child* child,
                                     int64_t timeout_ms);
/// Polls HEALTH until the server answers `ready=1`.
spindle::Status WaitHealthy(int port, int64_t timeout_ms);
/// A connected client to 127.0.0.1:port.
spindle::Result<std::unique_ptr<spindle::server::LineClient>> Connect(
    int port);

/// \brief A METRICS scrape: sample name + label body → value.
using Scrape = std::map<std::string, double>;
spindle::Result<Scrape> ScrapeMetrics(int port);
/// Value of `key` (name or name{labels}); 0 when absent.
double Metric(const Scrape& s, const std::string& key);
double Delta(const Scrape& before, const Scrape& after,
             const std::string& key);
/// Sample-wise sum of several servers' scrapes (a fleet's shards).
Scrape SumScrapes(const std::vector<Scrape>& scrapes);
/// Mean of a histogram family over the scrape window (sum/count diff).
double MeanDelta(const Scrape& before, const Scrape& after,
                 const std::string& histogram);

/// \brief Per-layer counters of a served phase from the servers' METRICS
/// diff: server.request_ms / queue_wait_us / shed, and the kernel's
/// ir.* and storage.* work counters per search.
void ReportServedCounters(const Scrape& before, const Scrape& after,
                          double searches, Report* report);

/// Spans a server or coordinator retained for `trace_id` (TRACEPULL).
spindle::Result<std::vector<spindle::obs::SpanRecord>> PullTrace(
    spindle::server::LineClient* client, uint64_t trace_id);

/// \brief Latency samples (ms) of one operation class.
class Latencies {
 public:
  void Add(double ms) { samples_.push_back(ms); }
  void Merge(const Latencies& other);
  size_t size() const { return samples_.size(); }
  double Median();
  /// The highest of p99/p98/p95/p90/p75/p50 with at least ten samples
  /// beyond it; `*q` receives the percentile used.
  double Tail(double* q);
  double Mean() const;
  /// Nearest-rank percentile `q` (0 when empty).
  double Percentile(double q);

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

/// \brief Median of a small set of values (setup repetitions).
double MedianOf(std::vector<double> v);

/// \brief Outcome of one closed-loop operation.
struct OpResult {
  bool ok = true;
  bool is_write = false;
  double ms = 0;  ///< the timed request alone (send → complete reply)
};

/// \brief Results of a closed loop. The measured time is cut into windows
/// of about kWindowSeconds. On a virtual machine the hypervisor may run
/// other guests on the benchmark's vCPUs (steal time in /proc/stat), in
/// bursts that slow every layer at once. The reported p50, tail and
/// throughput are the medians, over the quarter of the windows with the
/// least steal (Clean), of each window's value, so steal that spares a
/// quarter of the run does not move the result.
struct LoopStats {
  static constexpr double kWindowSeconds = 0.5;
  /// Percentile of the reported tail: the highest one whose estimate
  /// repeats within the benchmark's bound on a shared 4-vCPU host (a
  /// window's p99 follows stalls of the host, not of the program).
  static constexpr double kTailPercentile = 95;
  struct Window {
    Latencies reads;
    uint64_t completed = 0;
    double steal_pct = 0;
  };
  std::vector<Window> windows;
  Latencies reads;   ///< every read sample of the run
  Latencies writes;  ///< every write sample of the run
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  double window_s = 0;

  /// Indices of the ceil(n/4) windows with the least steal, and of every
  /// window whose steal equals the highest among them.
  std::vector<size_t> Clean() const;
  double P50();
  /// Median over the clean windows of each window's kTailPercentile;
  /// `*beyond` receives the fewest samples beyond it in one of them.
  double Tail(size_t* beyond);
  double OpsPerSec() const;
};

/// \brief Runs `clients` threads, each issuing `op(client, i)` back to
/// back until `seconds` have passed (a closed loop: the next request is
/// sent only after the previous reply). `op` times its own request, so
/// untimed follow-up work (a trace pull) stays out of the latency.
LoopStats RunClosedLoop(int clients, double seconds,
                        const std::function<OpResult(int client,
                                                     uint64_t i)>& op);

/// \brief Records the end-to-end metrics common to every workload.
void ReportLoop(LoopStats& loop, Report* report);

/// \brief Timed setup phases of one set-up; ReportSetup reports the medians
/// over a run's repetitions.
struct SetupPhases {
  double build_s = 0;
  double start_s = 0;
  double warm_s = 0;
  double total() const { return build_s + start_s + warm_s; }
};
void ReportSetup(const std::vector<SetupPhases>& runs, Report* report);

/// Refuses a configuration whose client threads or serving engine
/// threads (summed over server processes) exceed nproc, and stamps both.
spindle::Status CheckThreads(const Options& opts, int clients,
                             int engine_threads, Report* report);

/// Number of setup repetitions per run (median reported).
int SetupRepetitions(const Options& opts);

/// \brief Keyword queries of 1–4 terms over a generated collection's
/// vocabulary. Term ranks are Zipf-skewed over the mid-frequency band the
/// library's own query generator uses ([vocab/100, vocab/4]), so a few
/// terms are popular and most are rare.
class QueryGen {
 public:
  explicit QueryGen(int64_t vocab_size);
  std::string Next(spindle::Rng& rng) const;

 private:
  uint64_t lo_;
  spindle::ZipfSampler zipf_;
};

/// Vocabulary size spindle_serve --generate=N uses for an N-doc collection.
int64_t VocabFor(int64_t num_docs);

/// Sampled (query, reply rows) pairs kept for the answer check.
struct Sample {
  std::string query;
  std::vector<std::string> rows;
};

/// Compares each sample byte for byte with `reference(query)`; every
/// mismatch (or reference error) is a failed operation. With
/// `corrupt`, the first reference answer is altered first, so the check
/// must fail (the benchmark's self-test).
void CheckSamples(
    const std::vector<Sample>& samples,
    const std::function<spindle::Result<std::vector<std::string>>(
        const std::string&)>& reference,
    bool corrupt, Report* report);

// The workloads (one file each).
spindle::Status RunFleetSearch(const Options& opts, Report* report);
spindle::Status RunLiveMixed(const Options& opts, Report* report);
spindle::Status RunStrategyGraph(const Options& opts, Report* report);

}  // namespace perfbench
