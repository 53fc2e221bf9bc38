// xk_perfbench: the end-to-end keyword-query benchmark.
//
//   xk_perfbench --workload interactive|serve_socket|export_disk --seed N
//                --seconds S --trace 0|1 [--data-dir DIR] [--trace-dir DIR]
//
// Builds the workload's fixture, runs its seeded queries, checks every
// answer, and prints a human-readable report followed by one JSON line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (README.md lists both).

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "workloads.h"

namespace {

using xkpb::Metric;

int Usage(const char* why) {
  std::fprintf(stderr,
               "xk_perfbench: %s\nusage: xk_perfbench --workload "
               "interactive|serve_socket|export_disk --seed N --seconds S --trace 0|1 "
               "[--data-dir DIR] [--trace-dir DIR]\n",
               why);
  return 2;
}

/// Numbers as measured, all digits; JSON has no NaN/Inf.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  xkpb::Options options;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("missing value");
    args[argv[i]] = argv[i + 1];
  }
  try {
    for (const auto& [key, value] : args) {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (key == "--data-dir") {
        options.data_dir = value;
      } else if (key == "--trace-dir") {
        options.trace_dir = value;
      } else {
        return Usage(("unknown argument " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return Usage("bad number");
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be > 0");

  xk::Result<xkpb::WorkloadReport> report = xk::Status::InvalidArgument("unknown workload");
  if (options.workload == "interactive") {
    report = xkpb::RunInteractive(options);
  } else if (options.workload == "serve_socket") {
    report = xkpb::RunServeSocket(options);
  } else if (options.workload == "export_disk") {
    report = xkpb::RunExportDisk(options);
  } else {
    return Usage("--workload must be interactive, serve_socket or export_disk");
  }
  if (!report.ok()) {
    std::fprintf(stderr, "xk_perfbench: %s\n", report.status().ToString().c_str());
    return 1;
  }

  const xkpb::Tally& tally = report->tally;
  const auto& names =
      options.trace ? xkpb::PerLayerMetricNames() : xkpb::EndToEndMetricNames();
  std::map<std::string, Metric> by_name;
  for (const Metric& m : report->metrics) by_name[m.name] = m;
  std::string json_metrics;
  for (const auto& [name, unit] : names) {
    auto it = by_name.find(name);
    const bool ran = it != by_name.end();
    const double value = ran ? it->second.value : 0;
    std::printf("%-34s %14.6f %-6s%s\n", name.c_str(), value, unit.c_str(),
                ran ? "" : "  (layer not on this workload's path)");
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += "\"" + name + "\": {\"value\": " + JsonNumber(value) +
                    ", \"unit\": \"" + unit + "\"}";
  }
  std::printf("%-34s %14.6f %-6s  (failed %llu + rejected %llu + wrong %llu of %llu)\n",
              "error_rate", tally.error_rate(), "ratio",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.rejected),
              static_cast<unsigned long long>(tally.wrong),
              static_cast<unsigned long long>(tally.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              tally.errors() == 0 && tally.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.errors()), json_metrics.c_str());
  std::fflush(stdout);
  return 0;
}
