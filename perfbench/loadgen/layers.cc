#include "layers.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "harness.h"

namespace perfbench {

using spindle::obs::SpanRecord;

namespace {

std::string KeyOf(const SpanRecord& s) {
  return std::string(s.category) + "/" + s.name;
}

struct Tree {
  const std::vector<SpanRecord>* spans;
  std::vector<std::vector<size_t>> kids;
  /// Effective end: open spans end with their parent.
  std::vector<uint64_t> end;
};

/// Attributes [lo, hi) of span `node` to itself or, where children cover
/// it, to the blocking child (recursively).
void Attribute(const Tree& t, size_t node, uint64_t lo, uint64_t hi,
               std::map<std::string, double>* self_ns) {
  if (hi <= lo) return;
  struct Iv {
    uint64_t s, e;
    size_t idx;
  };
  std::vector<Iv> kids;
  std::vector<uint64_t> pts = {lo, hi};
  for (size_t k : t.kids[node]) {
    const uint64_t s = std::max<uint64_t>((*t.spans)[k].start_ns, lo);
    const uint64_t e = std::min<uint64_t>(t.end[k], hi);
    if (e <= s) continue;
    kids.push_back({s, e, k});
    pts.push_back(s);
    pts.push_back(e);
  }
  const std::string key = KeyOf((*t.spans)[node]);
  if (kids.empty()) {
    (*self_ns)[key] += static_cast<double>(hi - lo);
    return;
  }
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  // Runs of consecutive segments with the same blocking child.
  const size_t kNone = static_cast<size_t>(-1);
  size_t run_child = kNone;
  uint64_t run_lo = lo;
  auto flush = [&](uint64_t run_hi) {
    if (run_hi <= run_lo) return;
    if (run_child == kNone) {
      (*self_ns)[key] += static_cast<double>(run_hi - run_lo);
    } else {
      Attribute(t, run_child, run_lo, run_hi, self_ns);
    }
  };
  for (size_t i = 0; i + 1 < pts.size(); ++i) {
    const uint64_t p = pts[i], q = pts[i + 1];
    size_t best = kNone;
    uint64_t best_end = 0;
    for (const Iv& iv : kids) {
      if (iv.s <= p && iv.e >= q && (best == kNone || iv.e > best_end)) {
        best = iv.idx;
        best_end = iv.e;
      }
    }
    if (i == 0) {
      run_child = best;
      run_lo = p;
    } else if (best != run_child) {
      flush(p);
      run_child = best;
      run_lo = p;
    }
  }
  flush(pts.back());
}

}  // namespace

void LayerFold::AddRequest(const std::vector<SpanRecord>& spans,
                           double rtt_ms) {
  Tree t;
  t.spans = &spans;
  t.kids.resize(spans.size());
  t.end.resize(spans.size());
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.instant) continue;
    counts_[KeyOf(s)] += 1;
    for (const auto& [k, v] : s.counters) {
      counters_[KeyOf(s) + ":" + k] += static_cast<double>(v);
    }
    auto p = by_id.find(s.parent);
    if (s.parent == 0 || p == by_id.end()) {
      roots.push_back(i);
    } else {
      t.kids[p->second].push_back(i);
    }
  }
  // Effective ends, parents before children (spans are in Begin order,
  // so a parent precedes its children).
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    uint64_t end = s.end_ns;
    if (end == 0 || end < s.start_ns) {
      auto p = by_id.find(s.parent);
      end = p != by_id.end() ? t.end[p->second] : s.start_ns;
      if (end < s.start_ns) end = s.start_ns;
    }
    t.end[i] = end;
  }
  // Async children: a span that outlives its parent (the coordinator's
  // shard_wait spans are opened under `scatter` on dispatch threads and
  // end during `gather`) is adopted by the deepest span on the parent's
  // lane, under the same ancestor, that is open when it ends — the span
  // that actually waited for it.
  std::vector<size_t> parent_idx(spans.size(), static_cast<size_t>(-1));
  std::vector<int> depth(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto p = by_id.find(spans[i].parent);
    if (spans[i].instant || spans[i].parent == 0 || p == by_id.end()) continue;
    parent_idx[i] = p->second;
    depth[i] = depth[p->second] + 1;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const size_t p = parent_idx[i];
    if (p == static_cast<size_t>(-1) || t.end[i] <= t.end[p]) continue;
    size_t anc = p;
    while (parent_idx[anc] != static_cast<size_t>(-1) &&
           t.end[anc] < t.end[i]) {
      anc = parent_idx[anc];
    }
    size_t adopter = anc;
    for (size_t x = 0; x < spans.size(); ++x) {
      if (spans[x].instant || spans[x].lane != spans[p].lane ||
          depth[x] <= depth[adopter] || spans[x].start_ns > t.end[i] ||
          t.end[x] < t.end[i]) {
        continue;
      }
      size_t up = x;
      while (up != static_cast<size_t>(-1) && up != anc && up != i) {
        up = parent_idx[up];
      }
      if (up == anc) adopter = x;
    }
    if (adopter == p) continue;
    auto& old_kids = t.kids[p];
    old_kids.erase(std::find(old_kids.begin(), old_kids.end(), i));
    t.kids[adopter].push_back(i);
  }

  std::map<std::string, double> self_ns;
  double root_ms = 0;
  for (size_t r : roots) {
    Attribute(t, r, spans[r].start_ns, t.end[r], &self_ns);
    root_ms += static_cast<double>(t.end[r] - spans[r].start_ns) / 1e6;
  }
  double attributed_ms = 0;
  for (const auto& [k, ns] : self_ns) {
    self_ms_[k] += ns / 1e6;
    attributed_ms += ns / 1e6;
  }
  const double unattributed = rtt_ms - root_ms;
  unattributed_ms_ += unattributed;
  rtt_ms_ += rtt_ms;
  abs_error_ms_ += std::fabs(attributed_ms + unattributed - rtt_ms);
  ++requests_;

  // Shard waits: the slowest sets the pace; skew = slowest − median.
  std::vector<double> waits;
  for (const SpanRecord& s : spans) {
    if (!s.instant && s.name == "shard_wait" &&
        std::string(s.category) == "coord") {
      waits.push_back(static_cast<double>(s.duration_ns()) / 1e6);
    }
  }
  if (!waits.empty()) {
    std::sort(waits.begin(), waits.end());
    ++shard_requests_;
    shard_wait_ms_ += waits.back();
    shard_skew_ms_ += waits.back() - MedianOf(waits);
  }
}

void LayerFold::Merge(const LayerFold& o) {
  requests_ += o.requests_;
  rtt_ms_ += o.rtt_ms_;
  unattributed_ms_ += o.unattributed_ms_;
  abs_error_ms_ += o.abs_error_ms_;
  for (const auto& [k, v] : o.self_ms_) self_ms_[k] += v;
  for (const auto& [k, v] : o.counts_) counts_[k] += v;
  for (const auto& [k, v] : o.counters_) counters_[k] += v;
  shard_requests_ += o.shard_requests_;
  shard_wait_ms_ += o.shard_wait_ms_;
  shard_skew_ms_ += o.shard_skew_ms_;
}

double LayerFold::MeanSelfMs(const std::vector<std::string>& keys) const {
  if (requests_ == 0) return 0;
  double sum = 0;
  for (const std::string& k : keys) {
    auto it = self_ms_.find(k);
    if (it != self_ms_.end()) sum += it->second;
  }
  return sum / static_cast<double>(requests_);
}

double LayerFold::MeanCategoryMs(
    const std::string& category,
    const std::vector<std::string>& except) const {
  if (requests_ == 0) return 0;
  double sum = 0;
  for (const auto& [k, v] : self_ms_) {
    if (k.rfind(category + "/", 0) != 0) continue;
    if (std::find(except.begin(), except.end(), k) != except.end()) continue;
    sum += v;
  }
  return sum / static_cast<double>(requests_);
}

double LayerFold::MeanRttMs() const {
  return requests_ == 0 ? 0 : rtt_ms_ / static_cast<double>(requests_);
}

double LayerFold::MeanUnattributedMs() const {
  return requests_ == 0 ? 0
                        : unattributed_ms_ / static_cast<double>(requests_);
}

double LayerFold::SumErrorPct() const {
  return rtt_ms_ <= 0 ? 0 : 100.0 * abs_error_ms_ / rtt_ms_;
}

double LayerFold::MeanCount(const std::string& key) const {
  if (requests_ == 0) return 0;
  auto it = counts_.find(key);
  return it == counts_.end()
             ? 0
             : it->second / static_cast<double>(requests_);
}

double LayerFold::CounterSum(const std::string& key,
                             const std::string& counter) const {
  auto it = counters_.find(key + ":" + counter);
  return it == counters_.end() ? 0 : it->second;
}

double LayerFold::MeanShardWaitMs() const {
  return shard_requests_ == 0
             ? 0
             : shard_wait_ms_ / static_cast<double>(shard_requests_);
}

double LayerFold::MeanShardSkewMs() const {
  return shard_requests_ == 0
             ? 0
             : shard_skew_ms_ / static_cast<double>(shard_requests_);
}

void LayerFold::ReportLayers(Report* report) const {
  if (requests_ == 0) return;
  auto has = [&](const std::string& category) {
    for (const auto& [k, v] : counts_) {
      if (k.rfind(category + "/", 0) == 0) return true;
    }
    return false;
  };
  report->Set("client.rtt_ms", MeanRttMs(), "ms");
  report->Set("unattributed_ms", MeanUnattributedMs(), "ms");
  report->Set("obs.layer_sum_error_pct", SumErrorPct(), "%");
  report->Context("traced_requests", static_cast<double>(requests_));
  if (has("server")) {
    report->Set("server.self_ms", MeanSelfMs({"server/request"}), "ms");
    report->Set("server.admission_ms", MeanSelfMs({"server/admission"}),
                "ms");
  }
  if (has("coord")) {
    const std::vector<std::string> waits = {"coord/shard_wait",
                                            "coord/shard_hedge"};
    report->Set("shard.coord_self_ms",
                MeanCategoryMs("coord", {"coord/shard_wait",
                                         "coord/shard_hedge",
                                         "coord/trace_pull"}),
                "ms");
    report->Set("shard.dispatch_unattributed_ms", MeanSelfMs(waits), "ms");
    report->Set("shard.wait_ms", MeanShardWaitMs(), "ms");
    report->Set("shard.skew_ms", MeanShardSkewMs(), "ms");
    report->Set("obs.trace_pull_ms", MeanSelfMs({"coord/trace_pull"}), "ms");
  }
  if (has("ir")) {
    report->Set("ir.search_self_ms",
                MeanSelfMs({"ir/search", "ir/search_sharded",
                            "ir/index_build"}),
                "ms");
    report->Set("ir.rank_topk_ms", MeanSelfMs({"ir/rank_topk"}), "ms");
  }
  if (has("engine")) {
    const std::vector<std::string> join = {
        "engine/hash_join", "engine/join_build", "engine/join_probe"};
    std::vector<std::string> not_other = join;
    not_other.push_back("engine/top_k");
    report->Set("engine.join_ms", MeanSelfMs(join), "ms");
    report->Set("engine.topk_ms", MeanSelfMs({"engine/top_k"}), "ms");
    report->Set("engine.other_ms", MeanCategoryMs("engine", not_other),
                "ms");
  }
  if (has("spinql")) {
    report->Set("pra.self_ms", MeanCategoryMs("spinql"), "ms");
  }
  if (has("exec")) {
    report->Set("exec.self_ms", MeanCategoryMs("exec"), "ms");
    report->Set("exec.morsels_per_query", MeanCount("exec/morsel"), "count");
    const double tasks = MeanCount("exec/task") *
                         static_cast<double>(requests_);
    report->Set("exec.task_wait_us",
                tasks > 0 ? CounterSum("exec/task", "queue_wait_us") / tasks
                          : 0,
                "us");
  }
}

}  // namespace perfbench
