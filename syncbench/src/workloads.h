// The benchmark's workloads, its report, and the check self-test.

#ifndef SYNCBENCH_WORKLOADS_H_
#define SYNCBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace syncbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for spooled outputs and the trace file.
  std::string out_dir = ".bench_out";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  /// False when any output check failed other than the known
  /// quadtree-adaptive decode fault.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics common to every workload. A traced run reports
  /// them too, to measure the tracing overhead.
  std::map<std::string, Metric> end_to_end;
  /// Per-layer metrics (traced run only).
  std::map<std::string, Metric> per_layer;
  /// End-to-end metrics that exist on one workload only.
  std::map<std::string, Metric> extra;
  /// Attempt and failure breakdown (by kind and reason).
  std::map<std::string, uint64_t> counts;
  /// Span summary of the traced run.
  std::map<std::string, SpanStats> spans;
};

std::vector<std::string> WorkloadNames();

/// Runs one workload. False if `config.workload` is unknown or the set-up
/// could not start (no report is produced then).
bool RunWorkload(const RunConfig& config, RunReport* report);

/// Plants one wrong output per check and counts how many the checks
/// caught. Returns true only if every planted output counted as failed
/// and every genuine output passed. Prints one line per case to stderr.
bool RunSelfTest();

}  // namespace syncbench

#endif  // SYNCBENCH_WORKLOADS_H_
