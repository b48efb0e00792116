#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/export.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void print_latency_rows(
    const std::map<std::string, std::vector<double>>& latency_ms) {
  std::printf("  %-28s %6s %12s %12s\n", "program", "count", "median_ms",
              "max_ms");
  for (const auto& [name, values] : latency_ms) {
    std::printf("  %-28s %6zu %12.3f %12.3f\n", name.c_str(), values.size(),
                median(values), *std::max_element(values.begin(), values.end()));
  }
}

namespace {
cpu_set_t unpinned_cpus;
bool pinned = false;
}  // namespace

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof unpinned_cpus, &unpinned_cpus)) {
    return -1;  // affinity unavailable: run unpinned
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one)) return -1;
  pinned = true;
  return cpu;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t width = std::min<std::size_t>(
      n, std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(width);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < width; ++t) {
    threads.emplace_back([&, t] {
      if (pinned) sched_setaffinity(0, sizeof unpinned_cpus, &unpinned_cpus);
      try {
        for (std::size_t i = next++; i < n; i = next++) fn(i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

double peak_rss_mb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

std::unique_ptr<qmap::obs::Observer> make_span_observer() {
  qmap::obs::ObsConfig config;
  config.trace_capacity = 1 << 18;
  config.trace_shards = 1;  // every span is recorded from one thread
  auto observer = std::make_unique<qmap::obs::Observer>(config);
  const Clock::time_point origin = Clock::now();
  observer->set_clock([origin] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin)
        .count();
  });
  return observer;
}

std::vector<double> span_us(const qmap::obs::Observer& observer,
                            const std::string& name) {
  std::vector<double> out;
  for (const qmap::obs::SpanRecord& span : observer.trace().snapshot()) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_us - span.start_us) / 1e3);
    }
  }
  if (out.empty()) throw std::runtime_error("no span named " + name);
  return out;
}

double span_total_s(const qmap::obs::Observer& observer,
                    const std::string& name) {
  double total_us = 0.0;
  for (const double us : span_us(observer, name)) total_us += us;
  return total_us * 1e-6;
}

std::string self_time_table(const std::vector<qmap::obs::SpanRecord>& spans) {
  // Children of one span never overlap (the benchmark drives every layer
  // from one thread), so covered time is the sum of child durations.
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const qmap::obs::SpanRecord& span : spans) {
    if (span.parent_seq != 0) {
      child_ns[span.parent_seq] += span.end_us - span.start_us;
    }
  }
  struct Row {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const qmap::obs::SpanRecord& span : spans) {
    Row& row = rows[span.name];
    const std::int64_t ns = span.end_us - span.start_us;
    const auto child = child_ns.find(span.seq);
    ++row.count;
    row.total_s += static_cast<double>(ns) * 1e-9;
    row.self_s += static_cast<double>(
                      ns - (child == child_ns.end() ? 0 : child->second)) *
                  1e-9;
  }
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof line, "  %-38s %8s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  out << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof line, "  %-38s %8zu %12.3f %12.3f\n",
                  name.c_str(), row.count, row.total_s * 1e3,
                  row.self_s * 1e3);
    out << line;
  }
  return out.str();
}

void write_chrome_trace(const qmap::obs::Observer& observer,
                        const std::string& path) {
  std::vector<qmap::obs::SpanRecord> spans = observer.trace().snapshot();
  for (qmap::obs::SpanRecord& span : spans) {
    span.start_us /= 1000;
    span.end_us /= 1000;
  }
  std::ofstream out(path);
  out << qmap::obs::export_chrome_trace(spans);
  if (!out.flush()) throw std::runtime_error("cannot write trace to " + path);
}

}  // namespace perfbench
