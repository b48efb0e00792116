// Shared plumbing of the qmaplib end-to-end benchmark: run arguments,
// sample statistics, the metric sheet every workload fills, and the span
// helpers of the traced mode.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Checkout root: configs/ is read from here.
  std::string root = ".";
  /// Scratch directory inside the checkout for generated inputs and the
  /// written trace.
  std::string work_dir = ".";
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Prints one row per program: sample count and median/max latency in ms.
void print_latency_rows(
    const std::map<std::string, std::vector<double>>& latency_ms);

/// Pins the calling thread, and every thread it starts later, to the CPU it
/// is running on, and returns that CPU (-1 when affinity is unavailable).
/// The benchmark calls it before any set-up: on a 4-vCPU Xeon host,
/// wake-ups across cores and migrations between cores were the largest
/// run-to-run noise (serve_paper's cache-hit median read 60-90 us unpinned
/// against 34-40 us pinned). Every workload runs one thread at a time:
/// serve_paper's client, dispatcher and single compile thread take turns.
int pin_to_current_cpu();

/// Runs fn(0), ..., fn(n - 1) on up to nproc threads, each allowed on every
/// CPU the process had before pin_to_current_cpu(). Only output checks use
/// it; timed work stays pinned. The first exception is rethrown after every
/// thread has joined.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Process peak resident set size in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// The metric sheet of one run plus its operation counts. A workload fills
/// every end-to-end metric in an untraced run, and in a traced run the
/// per-layer metrics of the layers it loads (see Workload::layers).
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// First few failure descriptions (all failures are counted).
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one failed operation.
  void fail(const std::string& what);
};

/// The span store of the traced mode: a benchmark-owned Observer whose
/// clock counts nanoseconds, not microseconds, so that sub-microsecond
/// layers (the cache lookup) do not read 0. Spans are qmap::obs::Span
/// opened by the benchmark's own code around each layer's public entry
/// point; an untraced run passes a null Observer, which makes them inert.
[[nodiscard]] std::unique_ptr<qmap::obs::Observer> make_span_observer();

/// Durations in microseconds of every span called `name`. Throws when
/// there is none: a layer the workload loads always records its spans, so
/// an empty sample means a span that never fired or was renamed.
[[nodiscard]] std::vector<double> span_us(const qmap::obs::Observer& observer,
                                          const std::string& name);
/// Sum of the durations of spans called `name`, in seconds (throws as
/// span_us does).
[[nodiscard]] double span_total_s(const qmap::obs::Observer& observer,
                                  const std::string& name);

/// Per-name count, total and self time (total minus the time covered by
/// child spans, nested by parent_seq) as a printable table.
[[nodiscard]] std::string self_time_table(
    const std::vector<qmap::obs::SpanRecord>& spans);
/// Writes every span as Chrome trace events (obs::export_chrome_trace, with
/// the nanosecond clock scaled back to microseconds).
void write_chrome_trace(const qmap::obs::Observer& observer,
                        const std::string& path);

/// Tracing overhead of a traced run against the same work untraced. A
/// traced run alternates untraced and traced rounds of identical work, so
/// that drift in machine speed (this host's largest noise source) falls on
/// both sides alike; the overhead is the traced mean over the untraced mean.
class OverheadMeter {
 public:
  /// Whether the next round is traced: every second one in a traced run.
  [[nodiscard]] bool next_traced(bool traced_run) const noexcept {
    return traced_run && (count_[0] + count_[1]) % 2 == 1;
  }
  /// A traced run needs at least one round of each kind.
  [[nodiscard]] bool complete(bool traced_run) const noexcept {
    return !traced_run || (count_[0] > 0 && count_[1] > 0);
  }
  void add(bool traced, double seconds) {
    seconds_[traced] += seconds;
    ++count_[traced];
  }
  [[nodiscard]] std::size_t traced_count() const noexcept { return count_[1]; }
  /// 100 * (traced mean / untraced mean - 1).
  [[nodiscard]] double pct() const {
    return 100.0 * (seconds_[1] / static_cast<double>(count_[1]) /
                        (seconds_[0] / static_cast<double>(count_[0])) -
                    1.0);
  }

 private:
  double seconds_[2] = {0.0, 0.0};
  std::size_t count_[2] = {0, 0};
};

/// Set-up time of a run: the median of many set-ups, taken in bursts spread
/// over the whole run. One set-up takes well under a millisecond, and the
/// speed of a 4-vCPU Xeon host drifts by up to +-25% over 1-2 s, so
/// set-ups taken in one block before the timed loop read the speed of that
/// moment (IQR over median up to 0.27 between runs for 1 s of them). Each
/// set-up builds a spare of the objects `make` returns, after the previous
/// spare was destroyed untimed. The workload runs on objects built once the
/// same way: rebuilding them between rounds changed what the rounds measure
/// (a CompileService rebuilt after each round raised peak RSS from ~41 to
/// ~74 MiB).
inline constexpr double kSetupShare = 0.05;  // of the run, spent in set-ups
template <class Make>
class SetupMeter {
 public:
  explicit SetupMeter(Make make) : make_(std::move(make)) {}

  /// Set-ups for `seconds`, at least one.
  void burst(double seconds) {
    const auto begin = Clock::now();
    do {
      spare_.reset();
      const auto start = Clock::now();
      spare_.emplace(make_());
      times_.push_back(seconds_since(start));
    } while (seconds_since(begin) < seconds);
  }
  [[nodiscard]] double median_s() const { return median(times_); }

 private:
  Make make_;
  std::optional<std::invoke_result_t<Make&>> spare_;
  std::vector<double> times_;
};

/// One workload of the benchmark. `run` fills the report and returns
/// normally; a failed output check is counted in report.failed, not thrown.
/// `observer` is null in an untraced run.
struct Workload {
  const char* name;
  void (*run)(const Args& args, qmap::obs::Observer* observer,
              Report& report);
  /// Name prefixes of the per-layer metrics it fills in a traced run. Every
  /// other per-layer metric belongs to a layer it does not load and reads
  /// 0 there; a missing metric of a listed layer fails the run.
  std::vector<std::string> layers;
};

void run_serve_paper(const Args& args, qmap::obs::Observer* observer,
                     Report& report);
void run_compile_fig2(const Args& args, qmap::obs::Observer* observer,
                      Report& report);
void run_stream_clifford(const Args& args, qmap::obs::Observer* observer,
                         Report& report);

}  // namespace perfbench
