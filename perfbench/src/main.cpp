// qmap_perfbench: the end-to-end benchmark of qmaplib.
//
//   qmap_perfbench --workload <serve_paper|compile_fig2|stream_clifford>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--root <checkout>] [--work-dir <dir>]
//
// Prints a host block, the run's operation counts, every metric with its
// unit, and as its last line one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (plus the span table, and the spans written to the work directory). The
// metric names and units are read from <root>/BENCHMARK.json. Exits
// non-zero when any output check failed or a metric the workload must fill
// is missing.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "harness.hpp"

namespace {

using perfbench::Args;
using perfbench::Workload;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"serve_paper", perfbench::run_serve_paper,
       {"qasm.parse_us.", "service.", "resilience.", "engine.", "verify.",
        "trace."}},
      {"compile_fig2", perfbench::run_compile_fig2,
       {"decompose.ms.", "layout.ms.", "route.ms.", "postroute.ms.",
        "schedule.ms.", "decompose.gates_out", "route.gates_out",
        "postroute.gates_out", "route.added_swaps", "trace."}},
      {"stream_clifford", perfbench::run_stream_clifford,
       {"qasm.parse_s", "qasm.serialize_s", "qasm.bytes_out",
        "decompose.stream_s", "route.stream_s", "route.window_peak_gates",
        "pass.gates_out", "trace."}},
  };
  return table;
}

/// True when `workload` loads the layer of per-layer metric `name`.
bool fills(const Workload& workload, const std::string& name) {
  for (const std::string& prefix : workload.layers) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The end-to-end or per-layer metrics of <root>/BENCHMARK.json.
std::vector<MetricDef> benchmark_metrics(const std::string& root,
                                         bool per_layer) {
  std::ifstream in(root + "/BENCHMARK.json");
  if (!in) throw std::runtime_error("cannot read " + root + "/BENCHMARK.json");
  std::ostringstream text;
  text << in.rdbuf();
  const qmap::Json spec = qmap::Json::parse(text.str());
  const qmap::Json* list = spec.find(per_layer ? "per_layer" : "end_to_end");
  if (list == nullptr) throw std::runtime_error("BENCHMARK.json lacks metrics");
  std::vector<MetricDef> defs;
  for (const qmap::Json& metric : list->as_array()) {
    defs.push_back({metric.find("name")->as_string(),
                    metric.find("unit")->as_string()});
  }
  return defs;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "qmap_perfbench: " << why
            << "\nusage: qmap_perfbench --workload <serve_paper|compile_fig2|"
               "stream_clifford> --seed <n> --seconds <s> --trace <0|1> "
               "[--root <dir>] [--work-dir <dir>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--root") {
        args.root = value;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Shortest text that reads back as the same double.
std::string number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& candidate : workloads()) {
    if (args.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) usage("unknown workload '" + args.workload + "'");
  std::vector<MetricDef> defs;
  try {
    defs = benchmark_metrics(args.root, args.trace);
  } catch (const std::exception& e) {
    std::cerr << "qmap_perfbench: " << e.what() << "\n";
    return 1;
  }
  const std::unique_ptr<qmap::obs::Observer> observer =
      args.trace ? perfbench::make_span_observer() : nullptr;
  perfbench::Report report;
  const int cpu = perfbench::pin_to_current_cpu();

  std::cout << "host: nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " cpu=\"" << cpu_model()
            << "\" build=" << QMAP_BENCH_BUILD_TYPE << " pinned_cpu=" << cpu
            << "\n"
            << "run: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\n";
  try {
    workload->run(args, observer.get(), report);
    if (observer) {
      if (observer->trace().dropped() != 0) {
        throw std::runtime_error("span store full: spans were dropped");
      }
      const std::string path = args.work_dir + "/trace-" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".json";
      perfbench::write_chrome_trace(*observer, path);
      std::cout << "spans (self time = total minus child spans), written to "
                << path << ":\n"
                << perfbench::self_time_table(observer->trace().snapshot());
    }
  } catch (const std::exception& e) {
    std::cerr << "qmap_perfbench: " << args.workload << " aborted: "
              << e.what() << "\n";
    return 1;
  }

  std::cout << "operations: attempted=" << report.attempted
            << " failed=" << report.failed << "\n";
  for (const std::string& failure : report.failures) {
    std::cout << "  FAILED: " << failure << "\n";
  }
  // Every metric of BENCHMARK.json is reported. One the workload must fill
  // but did not, one it filled with another unit, and one BENCHMARK.json
  // does not list are harness faults.
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool ok = true;
  for (const MetricDef& def : defs) {
    const bool owned = !args.trace || fills(*workload, def.name);
    const auto it = report.metrics.find(def.name);
    double value = 0.0;
    if (it == report.metrics.end()) {
      if (owned) {
        std::cerr << "qmap_perfbench: metric " << def.name
                  << " not measured\n";
        ok = false;
      }
    } else if (!owned) {
      std::cerr << "qmap_perfbench: metric " << def.name
                << " filled by a workload that does not list its layer\n";
      ok = false;
    } else if (it->second.second != def.unit) {
      std::cerr << "qmap_perfbench: metric " << def.name << " is in "
                << it->second.second << ", BENCHMARK.json says " << def.unit
                << "\n";
      ok = false;
    } else {
      value = it->second.first;
    }
    std::printf("  %-40s %16.6g %s\n", def.name.c_str(), value,
                def.unit.c_str());
    json += std::string(json.back() == '{' ? "" : ", ") + "\"" + def.name +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" +
            def.unit + "\"}";
  }
  for (const auto& [name, value] : report.metrics) {
    bool listed = false;
    for (const MetricDef& def : defs) listed |= def.name == name;
    if (!listed) {
      std::cerr << "qmap_perfbench: metric " << name
                << " is not in BENCHMARK.json\n";
      ok = false;
    }
  }
  if (!ok) return 1;
  json += "}}";
  std::cout << json << std::endl;
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
