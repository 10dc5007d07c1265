#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/metrics_registry.h"
#include "obs/span_wire.h"
#include "obs/trace.h"
#include "server/line_server.h"
#include "workload/text_gen.h"

namespace perfbench {

using spindle::Result;
using spindle::Status;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// Metric catalogue
// ---------------------------------------------------------------------------

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"p50_ms", "ms"},  {"p95_ms", "ms"}, {"ops_per_s", "1/s"},
      {"setup_s", "s"},  {"rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"client.rtt_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"net.unattributed_ms", "ms"},
      {"server.request_ms", "ms"},
      {"server.queue_wait_us", "us"},
      {"server.shed", "count"},
      {"server.self_ms", "ms"},
      {"server.admission_ms", "ms"},
      {"shard.coord_self_ms", "ms"},
      {"shard.wait_ms", "ms"},
      {"shard.dispatch_unattributed_ms", "ms"},
      {"shard.skew_ms", "ms"},
      {"shard.pool_reuse_ratio", "ratio"},
      {"shard.hedges_per_query", "count"},
      {"ir.search_self_ms", "ms"},
      {"ir.rank_topk_ms", "ms"},
      {"ir.docs_scored_per_query", "count"},
      {"ir.skip_ratio", "ratio"},
      {"storage.blocks_decoded_per_query", "count"},
      {"storage.block_skip_ratio", "ratio"},
      {"storage.decode_bytes_per_query", "bytes"},
      {"storage.mapped_mb", "MiB"},
      {"storage.heap_mb", "MiB"},
      {"storage.compressed_mb", "MiB"},
      {"storage.snapshot_mb", "MiB"},
      {"ingest.write_p50_ms", "ms"},
      {"ingest.compactions", "count"},
      {"ingest.compaction_ms", "ms"},
      {"ingest.delta_docs_mean", "count"},
      {"ingest.freshness_lag_us", "us"},
      {"ingest.writes_rejected", "count"},
      {"spinql.compile_ms", "ms"},
      {"spinql.eval_ms", "ms"},
      {"spinql.index_misses", "count"},
      {"spinql.fused_topk_ratio", "ratio"},
      {"engine.join_ms", "ms"},
      {"engine.topk_ms", "ms"},
      {"engine.other_ms", "ms"},
      {"pra.self_ms", "ms"},
      {"engine.cache_hit_ratio", "ratio"},
      {"engine.cache_evictions", "count"},
      {"exec.self_ms", "ms"},
      {"exec.morsels_per_query", "count"},
      {"exec.task_wait_us", "us"},
      {"setup.build_s", "s"},
      {"setup.start_s", "s"},
      {"setup.warm_s", "s"},
      {"obs.trace_pull_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.layer_sum_error_pct", "%"},
  };
  return defs;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Value{value, unit};
  absent_.erase(name);
}

void Report::Absent(const std::string& name, const std::string& reason) {
  if (metrics_.count(name) == 0) absent_[name] = reason;
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

void Report::Context(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  context_.emplace_back(key, buf);
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Fail(const std::string& what) {
  ++failed;
  correct = false;
  if (failures_.size() < 8) failures_.push_back(what);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(bool trace) const {
  for (const auto& [k, v] : context_) {
    std::printf("context %s=%s\n", k.c_str(), v.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("failure %s\n", f.c_str());
  }
  const std::vector<MetricDef>& defs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    auto it = metrics_.find(d.name);
    double value = 0;
    if (it != metrics_.end()) {
      value = it->second.value;
      std::printf("metric %-34s %14.6g %s\n", d.name, value, d.unit);
    } else {
      auto a = absent_.find(d.name);
      std::printf("metric %-34s %14s %s  (absent: %s)\n", d.name, "-",
                  d.unit,
                  a != absent_.end() ? a->second.c_str()
                                     : "not exercised by this workload");
    }
    if (!first) json += ", ";
    first = false;
    json.append("\"").append(d.name).append("\": {\"value\": ");
    json.append(JsonNumber(value)).append(", \"unit\": \"");
    json.append(d.unit).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Child>> Child::Spawn(
    const std::vector<std::string>& argv, const std::string& log_path,
    const std::vector<std::string>& extra_env) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  // extra_env first: getenv returns the first match.
  std::vector<std::string> env_strings = extra_env;
  env_strings.push_back("MALLOC_MMAP_THRESHOLD_=" +
                        std::to_string(kMmapThreshold));
  for (char** e = environ; *e != nullptr; ++e) env_strings.emplace_back(*e);
  std::vector<char*> envp;
  for (std::string& e : env_strings) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    // The server must not outlive the benchmark, whatever ends it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execve(args[0], args.data(), envp.data());
    _exit(127);
  }
  return std::unique_ptr<Child>(new Child(pid));
}

bool Child::Running() {
  if (reaped_) return false;
  int status = 0;
  pid_t r = waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    reaped_ = true;
    status_ = status;
    return false;
  }
  return r == 0;
}

int Child::Wait(int64_t timeout_ms) {
  const Clock::time_point t0 = Clock::now();
  while (Running()) {
    if (MsSince(t0) >= static_cast<double>(timeout_ms)) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return status_;
}

void Child::Stop(int port) {
  if (port > 0 && Running()) {
    spindle::server::LineClientOptions o;
    o.connect_timeout_ms = 1000;
    o.read_timeout_ms = 2000;
    spindle::server::LineClient c(o);
    if (c.Connect("127.0.0.1", port).ok()) (void)c.Shutdown();
    if (Wait(5000) >= 0) return;
  }
  if (Running()) {
    kill(pid_, SIGTERM);
    if (Wait(3000) >= 0) return;
    kill(pid_, SIGKILL);
    Wait(10000);
  }
}

Child::~Child() { Stop(0); }

namespace {

std::string ProcPath(pid_t pid, const char* file) {
  return (pid == 0 ? std::string("/proc/self/")
                   : "/proc/" + std::to_string(pid) + "/") +
         file;
}

}  // namespace

double PeakRssMb(pid_t pid) {
  std::ifstream in(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss(pid_t pid) {
  std::ofstream out(ProcPath(pid, "clear_refs"));
  out << "5";
}

Result<int> WaitForPortFile(const std::string& path, Child* child,
                            int64_t timeout_ms) {
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0) return port;
    if (!child->Running()) {
      return Status::Unavailable("server exited before listening (see " +
                                 path + ".log)");
    }
    if (MsSince(t0) >= static_cast<double>(timeout_ms)) {
      return Status::DeadlineExceeded("no port file at " + path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Result<std::unique_ptr<spindle::server::LineClient>> Connect(int port) {
  spindle::server::LineClientOptions o;
  o.connect_timeout_ms = 2000;
  o.read_timeout_ms = 60000;
  auto c = std::make_unique<spindle::server::LineClient>(o);
  SPINDLE_RETURN_IF_ERROR(c->Connect("127.0.0.1", port));
  return c;
}

Status WaitHealthy(int port, int64_t timeout_ms) {
  const Clock::time_point t0 = Clock::now();
  Status last = Status::OK();
  for (;;) {
    auto c = Connect(port);
    if (c.ok()) {
      auto r = c.ValueOrDie()->Call("HEALTH");
      if (r.ok() && !r.ValueOrDie().rows.empty() &&
          r.ValueOrDie().rows[0].rfind("ready=1", 0) == 0) {
        return Status::OK();
      }
      last = r.ok() ? Status::Unavailable("not ready") : r.status();
    } else {
      last = c.status();
    }
    if (MsSince(t0) >= static_cast<double>(timeout_ms)) {
      return Status::DeadlineExceeded("HEALTH never ready on port " +
                                      std::to_string(port) + ": " +
                                      last.ToString());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------------
// METRICS
// ---------------------------------------------------------------------------

Result<Scrape> ScrapeMetrics(int port) {
  SPINDLE_ASSIGN_OR_RETURN(auto client, Connect(port));
  SPINDLE_ASSIGN_OR_RETURN(spindle::server::WireResponse resp,
                           client->Call("METRICS"));
  std::string text;
  for (const std::string& row : resp.rows) text += row + "\n";
  SPINDLE_ASSIGN_OR_RETURN(auto families,
                           spindle::obs::ParsePrometheusText(text));
  Scrape out;
  for (const auto& f : families) {
    for (const auto& s : f.samples) {
      out[s.labels.empty() ? s.name : s.name + "{" + s.labels + "}"] =
          s.value;
    }
  }
  return out;
}

double Metric(const Scrape& s, const std::string& key) {
  auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second;
}

double Delta(const Scrape& before, const Scrape& after,
             const std::string& key) {
  return Metric(after, key) - Metric(before, key);
}

Scrape SumScrapes(const std::vector<Scrape>& scrapes) {
  Scrape out;
  for (const Scrape& s : scrapes) {
    for (const auto& [k, v] : s) out[k] += v;
  }
  return out;
}

double MeanDelta(const Scrape& before, const Scrape& after,
                 const std::string& histogram) {
  const double n = Delta(before, after, histogram + "_count");
  return n > 0 ? Delta(before, after, histogram + "_sum") / n : 0;
}

void ReportServedCounters(const Scrape& before, const Scrape& after,
                          double searches, Report* report) {
  report->Set("server.request_ms",
              MeanDelta(before, after, "spindle_request_latency_us") / 1000,
              "ms");
  report->Set("server.queue_wait_us",
              MeanDelta(before, after, "spindle_queue_wait_us"), "us");
  report->Set("server.shed", Delta(before, after, "spindle_shed_total"),
              "count");
  const double mib = 1024.0 * 1024.0;
  report->Set("storage.mapped_mb", Metric(after, "spindle_mapped_bytes") / mib,
              "MiB");
  report->Set("storage.heap_mb", Metric(after, "spindle_heap_bytes") / mib,
              "MiB");
  report->Set("storage.compressed_mb",
              Metric(after, "spindle_compressed_bytes") / mib, "MiB");
  if (searches <= 0) return;
  const double scored = Delta(before, after, "spindle_docs_scored_total");
  const double skipped = Delta(before, after, "spindle_docs_skipped_total");
  const double decoded = Delta(before, after, "spindle_blocks_decoded_total");
  const double bskipped = Delta(before, after, "spindle_blocks_skipped_total");
  report->Set("ir.docs_scored_per_query", scored / searches, "count");
  report->Set("ir.skip_ratio",
              scored + skipped > 0 ? skipped / (scored + skipped) : 0,
              "ratio");
  report->Set("storage.blocks_decoded_per_query", decoded / searches,
              "count");
  report->Set("storage.block_skip_ratio",
              decoded + bskipped > 0 ? bskipped / (decoded + bskipped) : 0,
              "ratio");
  report->Set("storage.decode_bytes_per_query",
              Delta(before, after, "spindle_decode_bytes_total") / searches,
              "bytes");
}

Result<std::vector<spindle::obs::SpanRecord>> PullTrace(
    spindle::server::LineClient* client, uint64_t trace_id) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%llx",
                static_cast<unsigned long long>(trace_id));
  SPINDLE_ASSIGN_OR_RETURN(spindle::server::WireResponse resp,
                           client->Call(std::string("TRACEPULL ") + hex));
  SPINDLE_ASSIGN_OR_RETURN(spindle::obs::SpanPayload payload,
                           spindle::obs::SpanPayloadFromRows(resp.rows));
  return std::move(payload.spans);
}

// ---------------------------------------------------------------------------
// Latency statistics and the closed loop
// ---------------------------------------------------------------------------

void Latencies::Merge(const Latencies& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

double Latencies::Percentile(double q) {
  if (samples_.empty()) return 0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(q / 100.0 * static_cast<double>(samples_.size())));
  if (rank < 1) rank = 1;
  if (rank > samples_.size()) rank = samples_.size();
  return samples_[rank - 1];
}

double Latencies::Median() { return Percentile(50); }

double Latencies::Tail(double* q) {
  static const double kCandidates[] = {99, 98, 95, 90, 75, 50};
  const double n = static_cast<double>(samples_.size());
  for (double c : kCandidates) {
    const double rank = std::ceil(c / 100.0 * n);
    if (n - rank >= 10) {
      *q = c;
      return Percentile(c);
    }
  }
  *q = 50;
  return Percentile(50);
}

double Latencies::Mean() const {
  if (samples_.empty()) return 0;
  double sum = 0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::vector<size_t> LoopStats::Clean() const {
  if (windows.empty()) return {};
  // Windows tied with the quarter's last one join it: steal is counted in
  // 10 ms jiffies, so on a quiet host most windows read 0, and cutting
  // the tie in time order would keep only the run's first windows.
  std::vector<double> steal;
  for (const Window& w : windows) steal.push_back(w.steal_pct);
  std::sort(steal.begin(), steal.end());
  const double limit = steal[(steal.size() + 3) / 4 - 1];
  std::vector<size_t> idx;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].steal_pct <= limit) idx.push_back(i);
  }
  return idx;
}

double LoopStats::P50() {
  std::vector<double> v;
  for (size_t i : Clean()) v.push_back(windows[i].reads.Median());
  return MedianOf(v);
}

double LoopStats::Tail(size_t* beyond) {
  std::vector<double> v;
  *beyond = SIZE_MAX;
  for (size_t i : Clean()) {
    Latencies& r = windows[i].reads;
    v.push_back(r.Percentile(kTailPercentile));
    const size_t rank = static_cast<size_t>(
        std::ceil(kTailPercentile / 100.0 * static_cast<double>(r.size())));
    *beyond = std::min(*beyond, r.size() - std::min(rank, r.size()));
  }
  if (v.empty()) *beyond = 0;
  return MedianOf(v);
}

double LoopStats::OpsPerSec() const {
  std::vector<double> v;
  for (size_t i : Clean()) {
    v.push_back(static_cast<double>(windows[i].completed) / window_s);
  }
  return MedianOf(v);
}

namespace {

/// (steal, total) jiffies of all CPUs from /proc/stat.
std::pair<double, double> CpuSteal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v = 0, total = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

LoopStats RunClosedLoop(
    int clients, double seconds,
    const std::function<OpResult(int client, uint64_t i)>& op) {
  const size_t n_windows = std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / LoopStats::kWindowSeconds)));
  const double window_s = seconds / static_cast<double>(n_windows);
  std::vector<LoopStats> per(static_cast<size_t>(clients));
  for (LoopStats& s : per) s.windows.resize(n_windows);
  const Clock::time_point t0 = Clock::now();
  auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const Clock::time_point until = at(seconds);
  // Steal per window, read at each window boundary.
  std::vector<std::pair<double, double>> marks(n_windows + 1);
  marks[0] = CpuSteal();
  std::thread ticker([&] {
    for (size_t w = 1; w <= n_windows; ++w) {
      std::this_thread::sleep_until(at(window_s * static_cast<double>(w)));
      marks[w] = CpuSteal();
    }
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& s = per[static_cast<size_t>(c)];
      for (uint64_t i = 0;; ++i) {
        const Clock::time_point start = Clock::now();
        if (start >= until) break;
        const size_t w = std::min(
            n_windows - 1,
            static_cast<size_t>(std::chrono::duration<double>(start - t0)
                                    .count() /
                                window_s));
        OpResult r = op(c, i);
        ++s.attempted;
        if (!r.ok) {
          ++s.failed;
          continue;
        }
        ++s.windows[w].completed;
        if (r.is_write) {
          s.writes.Add(r.ms);
        } else {
          s.reads.Add(r.ms);
          s.windows[w].reads.Add(r.ms);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ticker.join();
  LoopStats total;
  total.windows.resize(n_windows);
  total.elapsed_s = SecondsSince(t0);
  total.window_s = window_s;
  for (LoopStats& s : per) {
    total.reads.Merge(s.reads);
    total.writes.Merge(s.writes);
    total.attempted += s.attempted;
    total.failed += s.failed;
    for (size_t w = 0; w < n_windows; ++w) {
      total.windows[w].reads.Merge(s.windows[w].reads);
      total.windows[w].completed += s.windows[w].completed;
    }
  }
  for (size_t w = 0; w < n_windows; ++w) {
    const double jiffies = marks[w + 1].second - marks[w].second;
    total.windows[w].steal_pct =
        jiffies > 0 ? 100.0 * (marks[w + 1].first - marks[w].first) / jiffies
                    : 0;
  }
  return total;
}

void ReportLoop(LoopStats& loop, Report* report) {
  report->attempted += loop.attempted;
  report->failed += loop.failed;
  if (loop.failed > 0) report->correct = false;
  size_t beyond = 0;
  report->Set("p50_ms", loop.P50(), "ms");
  report->Set("p95_ms", loop.Tail(&beyond), "ms");
  report->Set("ops_per_s", loop.OpsPerSec(), "1/s");
  auto list = [&](const std::function<double(LoopStats::Window&)>& f) {
    std::string out;
    for (LoopStats::Window& w : loop.windows) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : ",", f(w));
      out += buf;
    }
    return out;
  };
  report->Context("window_p50_ms",
                  list([](LoopStats::Window& w) { return w.reads.Median(); }));
  report->Context("window_tail_ms", list([](LoopStats::Window& w) {
                    return w.reads.Percentile(LoopStats::kTailPercentile);
                  }));
  report->Context("window_ops", list([](LoopStats::Window& w) {
                    return static_cast<double>(w.completed);
                  }));
  report->Context("window_steal_pct",
                  list([](LoopStats::Window& w) { return w.steal_pct; }));
  std::string clean;
  for (size_t i : loop.Clean()) {
    if (!clean.empty()) clean += ",";
    clean += std::to_string(i);
  }
  report->Context("clean_windows", clean);
  report->Context("window_tail_min_beyond", static_cast<double>(beyond));
  double q = 0;
  const double run_tail = loop.reads.Tail(&q);
  report->Context("run_tail_percentile", q);
  report->Context("run_tail_ms", run_tail);
  report->Context("run_p50_ms", loop.reads.Median());
  report->Context("read_samples", static_cast<double>(loop.reads.size()));
  report->Context("write_samples", static_cast<double>(loop.writes.size()));
  report->Context("measured_s", loop.elapsed_s);
}

void ReportSetup(const std::vector<SetupPhases>& runs, Report* report) {
  std::vector<double> total, build, start, warm;
  std::string each;
  for (const SetupPhases& p : runs) {
    total.push_back(p.total());
    build.push_back(p.build_s);
    start.push_back(p.start_s);
    warm.push_back(p.warm_s);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", each.empty() ? "" : ",",
                  p.total());
    each += buf;
  }
  report->Set("setup_s", MedianOf(total), "s");
  report->Set("setup.build_s", MedianOf(build), "s");
  report->Set("setup.start_s", MedianOf(start), "s");
  report->Set("setup.warm_s", MedianOf(warm), "s");
  report->Context("setup_repetitions_s", each);
}

Status CheckThreads(const Options& opts, int clients, int engine_threads,
                    Report* report) {
  report->Context("clients", clients);
  report->Context("engine_threads", engine_threads);
  if (clients > opts.nproc || engine_threads > opts.nproc) {
    return Status::InvalidArgument(
        "workload needs " + std::to_string(clients) + " client and " +
        std::to_string(engine_threads) + " engine threads but nproc is " +
        std::to_string(opts.nproc));
  }
  return Status::OK();
}

int SetupRepetitions(const Options& opts) { return opts.tiny ? 1 : 3; }

int64_t VocabFor(int64_t num_docs) {
  return std::max<int64_t>(2000, num_docs / 2);
}

QueryGen::QueryGen(int64_t vocab_size)
    : lo_(static_cast<uint64_t>(std::max<int64_t>(1, vocab_size / 100))),
      zipf_(static_cast<uint64_t>(std::max<int64_t>(2, vocab_size / 4)) -
                lo_,
            1.0) {}

std::string QueryGen::Next(spindle::Rng& rng) const {
  const int terms = 1 + static_cast<int>(rng.NextBounded(4));
  std::string q;
  for (int t = 0; t < terms; ++t) {
    if (t > 0) q.push_back(' ');
    q += spindle::WordForRank(lo_ + zipf_.Sample(rng) - 1);
  }
  return q;
}

void CheckSamples(
    const std::vector<Sample>& samples,
    const std::function<Result<std::vector<std::string>>(
        const std::string&)>& reference,
    bool corrupt, Report* report) {
  size_t checked = 0;
  for (const Sample& s : samples) {
    ++report->attempted;
    Result<std::vector<std::string>> want = reference(s.query);
    if (!want.ok()) {
      report->Fail("reference for '" + s.query +
                   "' failed: " + want.status().ToString());
      continue;
    }
    std::vector<std::string> expected = want.MoveValueOrDie();
    if (corrupt && checked == 0) {
      if (expected.empty()) {
        expected.push_back("corrupted");
      } else {
        expected[0] += "0";
      }
    }
    ++checked;
    if (expected != s.rows) {
      report->Fail("answer mismatch for '" + s.query + "': got " +
                   std::to_string(s.rows.size()) + " rows" +
                   (s.rows.empty() ? "" : " first=" + s.rows[0]) +
                   ", want " + std::to_string(expected.size()) + " rows" +
                   (expected.empty() ? "" : " first=" + expected[0]));
    }
  }
  report->Context("answers_checked", static_cast<double>(checked));
}

}  // namespace perfbench
