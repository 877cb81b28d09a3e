// syncbench: one workload of the sync benchmark per invocation.
//
//   syncbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//   syncbench --selftest
//
// Prints one JSON object on stdout: correct, attempted, failed, the
// metrics (end-to-end with --trace 0, per-layer with --trace 1), the
// workload-specific extras, the attempt/failure breakdown and, when
// traced, the span summary. syncbench/run.py builds this binary and turns
// that object into the benchmark's result line. See syncbench/README.md.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: syncbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "       syncbench --selftest\n"
               "workloads:");
  for (const std::string& name : syncbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void PrintMetrics(const std::map<std::string, syncbench::Metric>& metrics) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) std::printf(",");
    first = false;
    PrintJsonString(name);
    std::printf(":{\"value\":%.17g,\"unit\":", metric.value);
    PrintJsonString(metric.unit);
    std::printf("}");
  }
  std::printf("}");
}

void PrintReport(const syncbench::RunConfig& config,
                 const syncbench::RunReport& report) {
  std::printf("{\"workload\":");
  PrintJsonString(config.workload);
  std::printf(",\"seed\":%llu,\"seconds\":%.17g,\"trace\":%d",
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf(",\"correct\":%s,\"attempted\":%llu,\"failed\":%llu",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf(",\"metrics\":");
  PrintMetrics(config.trace ? report.per_layer : report.end_to_end);
  std::printf(",\"end_to_end\":");
  PrintMetrics(report.end_to_end);
  std::printf(",\"extra\":");
  PrintMetrics(report.extra);
  std::printf(",\"counts\":{");
  bool first = true;
  for (const auto& [name, count] : report.counts) {
    if (!first) std::printf(",");
    first = false;
    PrintJsonString(name);
    std::printf(":%llu", static_cast<unsigned long long>(count));
  }
  std::printf("},\"spans\":{");
  first = true;
  for (const auto& [name, stats] : report.spans) {
    if (!first) std::printf(",");
    first = false;
    PrintJsonString(name);
    std::printf(
        ":{\"count\":%zu,\"median_ms\":%.17g,\"median_self_ms\":%.17g}",
        stats.count, stats.median_ms, stats.median_self_ms);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool ParseUnsigned(const char* text, unsigned long long* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, 10);
  return errno == 0 && end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  syncbench::RunConfig config;
  bool selftest = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    unsigned long long number = 0;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && ParseUnsigned(value, &number)) {
      config.seed = number;
      have_seed = true;
    } else if (arg == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 600) {
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (arg == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      config.trace = number == 1;
      have_trace = true;
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (selftest) return syncbench::RunSelfTest() ? 0 : 1;
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage();
    return 2;
  }
  if (mkdir(config.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "syncbench: cannot create %s: %s\n",
                 config.out_dir.c_str(), std::strerror(errno));
    return 2;
  }
  syncbench::RunReport report;
  if (!syncbench::RunWorkload(config, &report)) {
    std::fprintf(stderr, "syncbench: workload \"%s\" unknown or its hosts "
                         "could not start\n",
                 config.workload.c_str());
    Usage();
    return 2;
  }
  PrintReport(config, report);
  return 0;
}
