// compile_fig2: the paper's Fig. 2 flow (decompose -> place -> route ->
// postroute -> control-constrained schedule) through the default Compiler
// preset, single-threaded and back to back, on mid-size circuits handed
// over in memory.
//
// The corpus is fixed (kCorpusSeed draws the random, quantum-volume and
// QAOA instances) so that added_cx and latency_cycles repeat exactly; --seed
// draws the order of every round. Slices: "ibm" is QX5, "s17" Surface-17,
// "noisy" the reliability placer and router on the calibrated Surface-17.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "harness.hpp"
#include "oracles.hpp"
#include "pass/registry.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using qmap::Circuit;

constexpr std::uint64_t kCorpusSeed = 2020;

struct Slice {
  const char* name;
  const char* config;
  const char* placer;
  const char* router;
};
constexpr Slice kSlices[] = {
    {"ibm", "ibm_qx5.json", "greedy", "sabre"},
    {"s17", "surface17.json", "greedy", "sabre"},
    {"noisy", "surface17_noisy.json", "reliability", "reliability"},
};

struct Entry {
  Circuit circuit;
  std::size_t slice = 0;
};

std::vector<Entry> corpus() {
  using namespace qmap::workloads;
  qmap::Rng rng(kCorpusSeed);
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q < 14; ++q) edges.push_back({q, (q + 1) % 14});
  for (int q = 0; q < 7; ++q) edges.push_back({q, q + 7});
  std::vector<Circuit> circuits;
  circuits.push_back(qft(12));
  circuits.push_back(cuccaro_adder(6));
  circuits.push_back(quantum_volume(12, 8, rng));
  circuits.push_back(qaoa_maxcut(14, edges, 2, rng));
  // The random circuits are Clifford, so their outputs get the exact (and
  // fast) tableau check; a 17-qubit state vector costs ~30 s on the
  // largest one.
  circuits.push_back(random_clifford_circuit(10, 500, rng));
  circuits.push_back(random_clifford_circuit(16, 2000, rng));
  // The reliability router is quadratic in circuit size: it sees every
  // circuit but the 2000-gate one.
  std::vector<Entry> entries;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    for (std::size_t s = 0; s < std::size(kSlices); ++s) {
      if (s == 2 && circuits[c].size() > 1000) continue;
      entries.push_back({circuits[c], s});
    }
  }
  return entries;
}

const char* layer_of(const std::string& pass) {
  if (pass == "placer") return "layout";
  if (pass == "router") return "route";
  return nullptr;  // decompose, postroute and schedule keep their names
}

}  // namespace

void run_compile_fig2(const Args& args, qmap::obs::Observer* observer,
                      Report& report) {
  const bool traced_run = observer != nullptr;
  // --- Set-up: device configs and compilers (with their artifacts). Timed
  // on spares after every untraced round (SetupMeter).
  const auto make_compilers = [&] {
    std::vector<std::unique_ptr<qmap::Compiler>> compilers;
    for (const Slice& slice : kSlices) {
      qmap::CompilerOptions options;
      options.placer = slice.placer;
      options.router = slice.router;
      compilers.push_back(std::make_unique<qmap::Compiler>(
          load_config(args.root, slice.config), options));
    }
    return compilers;
  };
  SetupMeter setup(make_compilers);
  setup.burst(0.0);
  const std::vector<std::unique_ptr<qmap::Compiler>> compilers =
      make_compilers();

  const std::vector<Entry> entries = corpus();
  std::vector<std::vector<std::string>> fingerprints(entries.size());
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> per_program;
  std::vector<double> us_per_gate;
  double total_s = 0.0;
  double total_gates = 0.0;
  std::map<std::string, double> sizes;  // IR sizes summed over traced rounds

  // Traced compile: the preset's passes built with make_pass and run one by
  // one on a CompileContext, each inside a span.
  const auto traced_compile = [&](const Entry& entry, const std::string& id) {
    const qmap::Compiler& compiler = *compilers[entry.slice];
    const std::string slice = kSlices[entry.slice].name;
    qmap::PipelineRuntime runtime;
    runtime.seed = compiler.options().seed;
    runtime.artifacts = compiler.artifacts();
    qmap::CompileContext ctx(entry.circuit, compiler.device(), runtime);
    qmap::obs::Span compile(observer, "compile." + slice, "compile");
    compile.arg("request", id);
    const qmap::PipelineSpec pipeline = compiler.pipeline();
    for (const qmap::PassSpec& spec : pipeline.passes()) {
      const std::unique_ptr<qmap::Pass> pass =
          qmap::make_pass(spec.pass, spec.options);
      const char* renamed = layer_of(spec.pass);
      {
        qmap::obs::Span span(observer,
                             (renamed ? renamed : spec.pass.c_str()) +
                                 std::string(".ms.") + slice,
                             "pass");
        pass->run(ctx);
      }
      if (spec.pass == "decompose") {
        sizes["decompose.gates_out"] += ctx.result.lowered.size();
      } else if (spec.pass == "router") {
        sizes["route.gates_out"] += ctx.result.routing.circuit.size();
        sizes["route.added_swaps"] += ctx.result.routing.added_swaps;
      } else if (spec.pass == "postroute") {
        sizes["postroute.gates_out"] += ctx.result.final_circuit.size();
      }
    }
    return std::move(ctx.result);
  };

  const auto run_round = [&](std::uint64_t round, bool traced) {
    std::vector<std::size_t> order(entries.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    qmap::Rng rng(qmap::Rng::derive_stream(args.seed, round));
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.index(i)]);
    }
    double round_s = 0.0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Entry& entry = entries[order[k]];
      const auto start = Clock::now();
      const qmap::CompilationResult result =
          traced ? traced_compile(entry, "r" + std::to_string(round) + "-" +
                                             std::to_string(k))
                 : compilers[entry.slice]->compile(entry.circuit);
      const double seconds = seconds_since(start);
      round_s += seconds;
      ++report.attempted;
      fingerprints[order[k]].push_back(
          qmap::content_digest(result.fingerprint()));
      latency_ms.push_back(seconds * 1e3);
      per_program[entry.circuit.name() + "@" + kSlices[entry.slice].name]
          .push_back(seconds * 1e3);
      us_per_gate.push_back(seconds * 1e6 /
                            static_cast<double>(entry.circuit.size()));
      total_s += seconds;
      total_gates += static_cast<double>(entry.circuit.size());
    }
    return round_s;
  };

  // --- Timed loop: whole rounds until --seconds have passed. A traced run
  // alternates untraced and traced rounds (see OverheadMeter).
  std::uint64_t rounds = 0;
  OverheadMeter overhead;
  const auto start = Clock::now();
  do {
    const bool traced = overhead.next_traced(traced_run);
    const double round_s = run_round(rounds++, traced);
    overhead.add(traced, round_s);
    if (!traced_run) setup.burst(kSetupShare * round_s);
  } while (seconds_since(start) < args.seconds ||
           !overhead.complete(traced_run));
  const double rss_mb = peak_rss_mb();

  // --- Checks, untimed: one fresh compile per entry, legality- and
  // equivalence-checked; every timed compile must carry its fingerprint.
  struct Checked {
    std::string bad;
    std::string fingerprint;
    long added = 0;
    long cycles = 0;
  };
  std::vector<Checked> checked(entries.size());
  parallel_for(entries.size(), [&](std::size_t i) {
    const qmap::Compiler& compiler = *compilers[entries[i].slice];
    const qmap::CompilationResult result = compiler.compile(entries[i].circuit);
    checked[i] = {check_compile(result, compiler.device(), i + 1),
                  qmap::content_digest(result.fingerprint()), added_cx(result),
                  result.scheduled_cycles};
  });
  long added = 0;
  long cycles = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string what = entries[i].circuit.name() + "@" +
                             kSlices[entries[i].slice].name;
    for (const std::string& timed : fingerprints[i]) {
      if (!checked[i].bad.empty()) {
        report.fail(what + ": " + checked[i].bad);
      } else if (timed != checked[i].fingerprint) {
        report.fail(what + ": compile differs from the checked one");
      }
    }
    added += checked[i].added;
    cycles += checked[i].cycles;
  }

  std::cout << "compile_fig2: rounds=" << rounds
            << " compiles=" << latency_ms.size()
            << " entries=" << entries.size() << "\n";
  print_latency_rows(per_program);
  if (!traced_run) {
    report.set("setup_s", setup.median_s(), "s");
    report.set("cold_ms.p50", quantile(latency_ms, 0.5), "ms");
    report.set("cold_ms.p90", quantile(latency_ms, 0.9), "ms");
    report.set("hit_us.p50", quantile(us_per_gate, 0.5), "us");
    report.set("gates_per_s", total_gates / total_s, "gates/s");
    report.set("peak_rss_mb", rss_mb, "MiB");
    report.set("added_cx", static_cast<double>(added), "count");
    report.set("latency_cycles", static_cast<double>(cycles), "cycles");
    return;
  }
  const double traced_rounds = static_cast<double>(overhead.traced_count());
  // One metric per pass span: a pass added to or dropped from the preset
  // shows as a metric BENCHMARK.json lacks, or one it lists left unfilled.
  std::set<std::string> passes;
  for (const qmap::obs::SpanRecord& span : observer->trace().snapshot()) {
    if (span.category == "pass") passes.insert(span.name);
  }
  for (const std::string& name : passes) {
    report.set(name, span_total_s(*observer, name) * 1e3 / traced_rounds,
               "ms");
  }
  for (const auto& [name, sum] : sizes) {
    report.set(name, sum / traced_rounds, "count");
  }
  report.set("trace.overhead_pct", overhead.pct(), "%");
}

}  // namespace perfbench
