// The benchmark's workloads and the result record they fill.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace s2d::perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload's untraced run.
inline const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> kMetrics = {
      {"msgs_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"wire_bytes_per_msg", "B"},
      {"msg_latency_steps_p50", "steps"},
      {"msg_latency_steps_p99", "steps"},
  };
  return kMetrics;
}

/// Per-layer metrics, reported by every workload's traced run (0 where a
/// layer does not take part in the workload).
inline const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> kMetrics = {
      {"core.tm_ns_per_msg", "ns"},
      {"core.rm_ns_per_msg", "ns"},
      {"core.calls_per_msg", "count"},
      {"core.state_bits_max", "bits"},
      {"adversary.ns_per_msg", "ns"},
      {"adversary.backlog_max", "packets"},
      {"adversary.backlog_mean", "packets"},
      {"adversary.queue_wait_steps_p99", "steps"},
      {"link.self_ns_per_msg", "ns"},
      {"link.allocs_per_msg", "count"},
      {"link.interned_send_ratio", "ratio"},
      {"link.pkts_per_msg", "count"},
      {"obs.events_per_msg", "count"},
      {"fleet.factory_ns_per_session", "ns"},
      {"fleet.engine_self_ns_per_msg", "ns"},
      {"fleet.arena_bytes_per_session", "B"},
      {"fleet.rss_bytes_per_session", "B"},
      {"fleet.batch_visit_us_p99", "us"},
      {"fleet.allocs_per_step", "count"},
      {"transport.offer_ns_per_msg", "ns"},
      {"transport.step_self_ns_per_msg", "ns"},
      {"transport.take_delivered_ns_per_msg", "ns"},
      {"transport.custody_high_water_bytes", "B"},
      {"transport.hop_forwards_per_msg", "count"},
      {"transport.allocs_per_msg", "count"},
      {"harness.factory_ns_per_script", "ns"},
      {"harness.self_ns_per_script", "ns"},
      {"harness.corpus_size", "count"},
      {"harness.scripts_per_s", "1/s"},
      {"harness.coverage_bits", "bits"},
      {"harness.allocs_per_script", "count"},
      {"trace.ns_per_msg", "ns"},
      {"trace.untraced_ns_per_msg", "ns"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.span_cost_ns_per_msg", "ns"},
      {"trace.residual_ns_per_msg", "ns"},
      {"trace.split_gap_ratio", "ratio"},
  };
  return kMetrics;
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  // why `correct` is false
  /// Workload parameters and deterministic outputs, for provenance.
  std::map<std::string, std::string> detail;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

Result run_link_chaos(const RunOptions& opts);
Result run_fleet_100k(const RunOptions& opts);
Result run_fabric_line5(const RunOptions& opts);
Result run_fuzz_coverage(const RunOptions& opts);

/// Runs fabric_line5's queue self-test: the adversary backlog measured
/// over runs of growing length must stay flat. Prints one line per length.
bool selftest_fabric_backlog(std::uint64_t seed);

}  // namespace s2d::perfbench
