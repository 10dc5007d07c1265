/// \file main.cc
/// \brief spindle_perfbench: the repository benchmark's load generator.
///
///   spindle_perfbench --workload=fleet_search --seed=1 --seconds=10
///                     --trace=0 --work-dir=DIR [--git-sha=SHA]
///                     [--size=tiny] [--corrupt-answer]
///
/// Runs one workload (fleet_search, live_mixed, strategy_graph), checks
/// its answers and prints the metric table; the last stdout line is the
/// JSON result. --trace=1 prints the per-layer metrics instead of the
/// end-to-end ones. perfbench/README.md describes every metric.

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"

namespace {

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "spindle_perfbench: %s\nusage: spindle_perfbench "
               "--workload=fleet_search|live_mixed|strategy_graph --seed=N "
               "--seconds=S --trace=0|1 --work-dir=DIR [--git-sha=SHA] "
               "[--size=tiny] [--corrupt-answer]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "spindle_perfbench: refusing to measure a build without "
               "NDEBUG (build type %s); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  mallopt(M_MMAP_THRESHOLD, perfbench::kMmapThreshold);
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (FlagValue(argv[i], "--workload", &v)) {
      o.workload = v;
    } else if (FlagValue(argv[i], "--seed", &v)) {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--seconds", &v)) {
      o.seconds = std::atof(v.c_str());
    } else if (FlagValue(argv[i], "--trace", &v)) {
      o.trace = v == "1";
    } else if (FlagValue(argv[i], "--work-dir", &v)) {
      o.work_dir = v;
    } else if (FlagValue(argv[i], "--git-sha", &v)) {
      o.git_sha = v;
    } else if (FlagValue(argv[i], "--size", &v)) {
      if (v != "tiny" && v != "full") return Usage("--size is tiny or full");
      o.tiny = v == "tiny";
    } else if (std::strcmp(argv[i], "--corrupt-answer") == 0) {
      o.corrupt_answer = true;
    } else {
      return Usage((std::string("unknown flag ") + argv[i]).c_str());
    }
  }
  if (o.work_dir.empty()) return Usage("--work-dir is required");
  if (o.seconds <= 0) return Usage("--seconds must be positive");
  ::mkdir(o.work_dir.c_str(), 0755);

  o.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (o.nproc <= 0) o.nproc = 1;

  perfbench::Report report;
  report.Context("workload", o.workload);
  report.Context("seed", std::to_string(o.seed));
  report.Context("nproc", o.nproc);
  report.Context("compiler", PERFBENCH_COMPILER);
  report.Context("build_type", PERFBENCH_BUILD_TYPE);
  report.Context("git_sha", o.git_sha);
  report.Context("size", o.tiny ? "tiny" : "full");
  report.Context("traced", o.trace ? "1" : "0");

  spindle::Status st;
  if (o.workload == "fleet_search") {
    st = perfbench::RunFleetSearch(o, &report);
  } else if (o.workload == "live_mixed") {
    st = perfbench::RunLiveMixed(o, &report);
  } else if (o.workload == "strategy_graph") {
    st = perfbench::RunStrategyGraph(o, &report);
  } else {
    return Usage("unknown workload");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "spindle_perfbench: %s failed: %s\n",
                 o.workload.c_str(), st.ToString().c_str());
    return 1;
  }
  report.Print(o.trace);
  return 0;
}
