// dbgc_bench: the repository benchmark (benchmark/README.md).
//
//   dbgc_bench --workload <name> [--seed <u64>] [--seconds <s>]
//              [--trace 0 | --trace 1 --trace-out <file>] [--out <file>]
//
// Runs one workload for `--seconds` measured seconds after its set-up and
// verification pass, prints every metric with its unit, and ends stdout
// with one JSON line {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics in an untraced run, the per-layer ones with
// --trace 1. A traced run also writes its spans to --trace-out, which it
// requires. --out writes every metric plus run metadata. The exit code is
// 0 only when every correctness check passed.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

namespace {

constexpr const char* kUsage =
    "usage: dbgc_bench --workload "
    "urban-full|urban-sparse4|drive-temporal|fleet-nominal|fleet-overload\n"
    "                  [--seed N] [--seconds S]\n"
    "                  [--trace 0 | --trace 1 --trace-out FILE] [--out FILE]\n";

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr, "dbgc_bench: %s\n%s", problem, kUsage);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbgc_bench;
  MarkProcessStart();

  RunConfig config;
  std::string trace_out, out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* rest = nullptr;
    errno = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &rest, 10);
      if (errno != 0 || *rest != '\0' || *value == '-') Usage("bad --seed");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &rest);
      if (errno != 0 || *rest != '\0' || !(config.seconds > 0) ||
          config.seconds > 3600) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      config.traced = v == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--out") {
      out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }

  if (config.traced && trace_out.empty()) Usage("--trace 1 needs --trace-out");

  Report report;
  SpanLog spans(config.traced);
  const Measured measured = [&] {
    if (config.workload == "urban-full") {
      return RunIntra(config, 1, &report, &spans);
    } else if (config.workload == "urban-sparse4") {
      return RunIntra(config, 4, &report, &spans);
    } else if (config.workload == "drive-temporal") {
      return RunTemporal(config, &report, &spans);
    } else if (config.workload == "fleet-nominal") {
      return RunFleet(config, 8, &report, &spans);
    } else if (config.workload == "fleet-overload") {
      return RunFleet(config, 48, &report, &spans);
    }
    Usage("unknown or missing --workload");
  }();
  SetMetrics(measured, config.traced, &report);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");

  if (config.traced) {
    report.Check(spans.Write(trace_out, config.workload),
                 "cannot write " + trace_out);
  }
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    report.Check(f != nullptr, "cannot write " + out);
    if (f != nullptr) {
      std::fprintf(f, "%s\n", report.FullJson(config).c_str());
      report.Check(std::fclose(f) == 0, "cannot write " + out);
    }
  }

  std::printf("workload %s, seed %llu, %.3g s measured, %s, "
              "hardware_concurrency %u\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.traced ? "traced" : "untraced",
              std::thread::hardware_concurrency());
  std::printf("operations: %llu attempted, %llu failed; correct: %s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct() ? "yes" : "no");
  report.Print();
  std::printf("%s\n", report.ResultJson(config.traced).c_str());
  return report.correct() ? 0 : 1;
}
