/// \file layers.h
/// \brief Folds the spans of traced requests into per-layer times.
///
/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover. Where children run in parallel (the
/// coordinator's three shard waits, morsels on pool threads) only the
/// blocking child is followed: at each instant the time goes to the active
/// child that finishes last, because that is the one the parent waits
/// for. The self times of one request therefore add up exactly to its
/// root span, and client time outside the root span is `unattributed`.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

class Report;

class LayerFold {
 public:
  /// Folds one request: `spans` share one timeline (one tracer, or a
  /// coordinator trace with the shards' spans spliced in); `rtt_ms` is the
  /// request time the client measured around the same request.
  void AddRequest(const std::vector<spindle::obs::SpanRecord>& spans,
                  double rtt_ms);
  void Merge(const LayerFold& other);

  uint64_t requests() const { return requests_; }
  /// Mean per request, in ms, of the blocking-path self time of the spans
  /// named `category/name` (any of `keys`).
  double MeanSelfMs(const std::vector<std::string>& keys) const;
  /// Mean per request of every self time whose category is `category`
  /// and whose key is not listed in `except`.
  double MeanCategoryMs(const std::string& category,
                        const std::vector<std::string>& except = {}) const;
  double MeanRttMs() const;
  double MeanUnattributedMs() const;
  /// Sum over requests of |layers + unattributed − rtt|, as % of total rtt.
  double SumErrorPct() const;
  /// Mean per request of the number of spans named `key`.
  double MeanCount(const std::string& key) const;
  /// Sum over all spans named `key` of their counter `counter`.
  double CounterSum(const std::string& key, const std::string& counter) const;
  /// Mean of the slowest shard wait and of (slowest − median) per request
  /// that had shard waits; 0 when none did.
  double MeanShardWaitMs() const;
  double MeanShardSkewMs() const;

  /// Publishes the generic layer metrics (client, unattributed, server,
  /// shard, ir, engine, pra, exec, obs) for the layers present.
  void ReportLayers(Report* report) const;

 private:
  uint64_t requests_ = 0;
  double rtt_ms_ = 0;
  double unattributed_ms_ = 0;
  double abs_error_ms_ = 0;
  std::map<std::string, double> self_ms_;
  std::map<std::string, double> counts_;
  std::map<std::string, double> counters_;
  uint64_t shard_requests_ = 0;
  double shard_wait_ms_ = 0;
  double shard_skew_ms_ = 0;
};

}  // namespace perfbench
