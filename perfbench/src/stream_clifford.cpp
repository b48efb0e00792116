// stream_clifford: the out-of-core path. One OpenQASM file on disk holds a
// 1M-gate random Clifford circuit on 16 qubits; QasmStreamSource ->
// PassManager::run_stream (decompose, identity placer, windowed sabre,
// token-swap finisher) on QX5 -> QasmStreamSink, into a stream that
// digests and counts every byte and keeps none.
//
// The circuit is fixed (kCorpusSeed) so that added_cx repeats exactly;
// every stream of a run is one whole pass over the file. Output check,
// untimed: one more stream whose gates feed a Clifford tableau (exact up to
// global phase, O(n^2) memory: the finisher restores the identity
// placement, so output and input tableaux must match) and a gate-by-gate
// legality check; its byte digest must equal every timed stream's.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "arch/artifacts.hpp"
#include "common/rng.hpp"
#include "decompose/decomposer.hpp"
#include "harness.hpp"
#include "ir/gate_stream.hpp"
#include "oracles.hpp"
#include "pass/manager.hpp"
#include "pass/registry.hpp"
#include "qasm/stream.hpp"
#include "sim/stabilizer.hpp"

namespace perfbench {
namespace {

using qmap::Gate;
using qmap::GateKind;

constexpr std::uint64_t kCorpusSeed = 2020;
constexpr int kQubits = 16;
constexpr std::size_t kGates = 1000000;

/// Writes the random Clifford circuit gate by gate (never materialized, so
/// generation does not raise the process's peak RSS).
void write_clifford_qasm(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" << kQubits
      << "];\n";
  static const char* const kOneQubit[] = {"h", "s", "sdg", "x", "y", "z"};
  static const char* const kTwoQubit[] = {"cx", "cz"};
  qmap::Rng rng(kCorpusSeed);
  std::string line;
  for (std::size_t i = 0; i < kGates; ++i) {
    const int a = rng.integer(0, kQubits - 1);
    if (rng.index(10) < 4) {
      int b = rng.integer(0, kQubits - 2);
      if (b >= a) ++b;
      line = std::string(kTwoQubit[rng.index(2)]) + " q[" + std::to_string(a) +
             "],q[" + std::to_string(b) + "];\n";
    } else {
      line = std::string(kOneQubit[rng.index(6)]) + " q[" +
             std::to_string(a) + "];\n";
    }
    out << line;
  }
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

/// Output stream buffer that keeps no byte: it counts them and folds them
/// into an FNV-1a digest.
class DigestBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      fold(&c, 1);
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    fold(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  void fold(const char* s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= static_cast<unsigned char>(s[i]);
      hash_ *= 0x100000001B3ULL;
    }
    bytes_ += n;
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
  std::size_t bytes_ = 0;
};

qmap::PipelineSpec streaming_spec() {
  qmap::PipelineSpec spec;
  spec.append("decompose");
  qmap::Json placer;
  placer["algorithm"] = qmap::Json(std::string("identity"));
  spec.append("placer", std::move(placer));
  qmap::Json router;
  router["algorithm"] = qmap::Json(std::string("sabre"));
  spec.append("router", std::move(router));
  spec.append("token_swap_finisher");
  return spec;
}

/// GateSource wrapper that accumulates the time spent in the inner pulls.
class TimedSource final : public qmap::GateSource {
 public:
  explicit TimedSource(qmap::GateSource& inner) : inner_(&inner) {}
  [[nodiscard]] int num_qubits() const override { return inner_->num_qubits(); }
  [[nodiscard]] int num_cbits() const override { return inner_->num_cbits(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  std::size_t pull(std::vector<Gate>& out, std::size_t max_gates) override {
    const auto start = Clock::now();
    const std::size_t n = inner_->pull(out, max_gates);
    seconds_ += seconds_since(start);
    return n;
  }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  qmap::GateSource* inner_;
  double seconds_ = 0.0;
};

/// GateSink wrapper that accumulates the time spent in the inner sink.
class TimedSink final : public qmap::GateSink {
 public:
  explicit TimedSink(qmap::GateSink& inner) : inner_(&inner) {}
  void put(Gate gate) override {
    const auto start = Clock::now();
    inner_->put(std::move(gate));
    seconds_ += seconds_since(start);
  }
  void put_chunk(std::vector<Gate>& gates) override {
    const auto start = Clock::now();
    inner_->put_chunk(gates);
    seconds_ += seconds_since(start);
  }
  void flush() override {
    const auto start = Clock::now();
    inner_->flush();
    seconds_ += seconds_since(start);
  }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  qmap::GateSink* inner_;
  double seconds_ = 0.0;
};

/// The decompose stage on its own: pulls raw gates and lowers them chunk by
/// chunk through a StreamingLowerer, as run_stream's head does.
class LoweringSource final : public qmap::GateSource {
 public:
  LoweringSource(qmap::GateSource& inner, const qmap::Device& device)
      : inner_(&inner),
        lowerer_(device, inner.num_qubits(), /*keep_swaps=*/true),
        scratch_(inner.num_qubits(), inner.name()) {}
  [[nodiscard]] int num_qubits() const override { return inner_->num_qubits(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  std::size_t pull(std::vector<Gate>& out, std::size_t max_gates) override {
    std::size_t appended = 0;
    while (appended < max_gates) {
      if (pos_ < pending_.size()) {
        out.push_back(std::move(pending_[pos_++]));
        ++appended;
        continue;
      }
      if (done_) break;
      raw_.clear();
      const std::size_t pulled = inner_->pull(raw_, max_gates);
      pending_.clear();
      pos_ = 0;
      scratch_.set_gates({});
      if (pulled == 0) {
        done_ = true;
        lowerer_.finish(scratch_);
      } else {
        lowerer_.lower_chunk(raw_, scratch_);
      }
      pending_ = scratch_.take_gates();
    }
    return appended;
  }

 private:
  qmap::GateSource* inner_;
  qmap::StreamingLowerer lowerer_;
  qmap::Circuit scratch_;
  std::vector<Gate> raw_;
  std::vector<Gate> pending_;
  std::size_t pos_ = 0;
  bool done_ = false;
};

/// Check sink: legality, output tableau, SWAP-weighted two-qubit cost and
/// dependency-only ASAP cycles of the routed stream.
class CheckSink final : public qmap::GateSink {
 public:
  CheckSink(const qmap::Device& device, qmap::GateSink& downstream)
      : device_(&device),
        downstream_(&downstream),
        legality_(device, /*require_native=*/false),
        tableau_(device.num_qubits()),
        available_(static_cast<std::size_t>(device.num_qubits()), 0) {}

  void put(Gate gate) override {
    inspect(gate);
    downstream_->put(std::move(gate));
  }
  void put_chunk(std::vector<Gate>& gates) override {
    for (const Gate& gate : gates) inspect(gate);
    downstream_->put_chunk(gates);
  }
  void flush() override { downstream_->flush(); }

  [[nodiscard]] const LegalityCheck& legality() const { return legality_; }
  [[nodiscard]] const qmap::CliffordTableau& tableau() const {
    return tableau_;
  }
  [[nodiscard]] long two_qubit_cost() const noexcept { return cost_; }
  [[nodiscard]] long cycles() const noexcept { return cycles_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  void inspect(const Gate& gate) {
    legality_.check(gate);
    if (gate.is_two_qubit()) cost_ += gate.kind == GateKind::SWAP ? 3 : 1;
    const int duration = device_->cycles_for(gate);
    int begin = 0;
    for (const int q : gate.qubits) {
      begin = std::max(begin, available_[static_cast<std::size_t>(q)]);
    }
    for (const int q : gate.qubits) {
      available_[static_cast<std::size_t>(q)] = begin + duration;
    }
    cycles_ = std::max<long>(cycles_, begin + duration);
    if (!error_.empty()) return;
    try {
      tableau_.apply(gate);
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  const qmap::Device* device_;
  qmap::GateSink* downstream_;
  LegalityCheck legality_;
  qmap::CliffordTableau tableau_;
  std::vector<int> available_;
  long cost_ = 0;
  long cycles_ = 0;
  std::string error_;
};

struct StreamRun {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::size_t bytes = 0;
  qmap::StreamReport report;
};

}  // namespace

void run_stream_clifford(const Args& args, qmap::obs::Observer* observer,
                         Report& report) {
  const bool traced_run = observer != nullptr;
  // --- Set-up: device config, artifacts, pass manager. Timed on spares
  // after every untraced stream (SetupMeter).
  struct Setup {
    qmap::Device device;
    qmap::PipelineRuntime runtime;
    std::unique_ptr<qmap::PassManager> manager;
  };
  const auto make_setup = [&] {
    Setup setup;
    setup.device = load_config(args.root, "ibm_qx5.json");
    setup.runtime.artifacts = qmap::ArchArtifacts::shared(setup.device);
    setup.manager = std::make_unique<qmap::PassManager>(streaming_spec());
    return setup;
  };
  SetupMeter setup(make_setup);
  setup.burst(0.0);
  Setup live = make_setup();
  const qmap::Device& device = live.device;
  const qmap::PipelineRuntime& runtime = live.runtime;
  qmap::PassManager& manager = *live.manager;
  const qmap::StreamPipelineOptions options;

  // --- Input: the circuit file, removed again when the run ends.
  const std::string path = args.work_dir + "/clifford" +
                           std::to_string(kQubits) + "-" +
                           std::to_string(getpid()) + ".qasm";
  write_clifford_qasm(path);
  struct Remove {
    std::string path;
    ~Remove() { std::remove(path.c_str()); }
  } remove_input{path};

  // One whole stream, file to digest. `wrap` optionally interposes on the
  // source and sink (timing adapters, check sink).
  const auto stream = [&](auto&& wrap) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    DigestBuf buf;
    std::ostream out(&buf);
    StreamRun run;
    const auto start = Clock::now();
    qmap::QasmStreamSource source(in, "clifford16");
    qmap::QasmStreamSink sink(out, kQubits);
    run.report = wrap(source, sink);
    run.seconds = seconds_since(start);
    run.digest = buf.digest();
    run.bytes = buf.bytes();
    return run;
  };
  const auto plain = [&](qmap::GateSource& source, qmap::GateSink& sink) {
    return manager.run_stream(source, device, sink, runtime, options);
  };

  std::vector<StreamRun> runs;
  double parse_s = 0.0;
  double serialize_s = 0.0;
  OverheadMeter overhead;

  // --- Timed loop: whole streams until --seconds have passed. A traced run
  // alternates untraced and traced streams (see OverheadMeter).
  const auto start = Clock::now();
  do {
    const bool traced = overhead.next_traced(traced_run);
    if (!traced) {
      runs.push_back(stream(plain));
    } else {
      qmap::obs::Span span(observer, "stream.run_stream", "stream");
      span.arg("request", std::to_string(runs.size()));
      runs.push_back(stream([&](qmap::GateSource& source,
                                qmap::GateSink& sink) {
        TimedSource timed_source(source);
        TimedSink timed_sink(sink);
        qmap::StreamReport result = manager.run_stream(
            timed_source, device, timed_sink, runtime, options);
        parse_s += timed_source.seconds();
        serialize_s += timed_sink.seconds();
        return result;
      }));
    }
    overhead.add(traced, runs.back().seconds);
    if (!traced_run) setup.burst(kSetupShare * runs.back().seconds);
  } while (seconds_since(start) < args.seconds ||
           !overhead.complete(traced_run));
  const double rss_mb = peak_rss_mb();
  const double traced_streams = static_cast<double>(overhead.traced_count());

  if (traced_run) {
    // Lowering and routing on their own over the same input: route time is
    // route_stream's wall time minus its source pulls (parse + lower) and
    // sink puts; lowering time is the lowering source's pulls minus the
    // parser's.
    std::ifstream in(path);
    qmap::QasmStreamSource parser(in, "clifford16");
    TimedSource timed_parser(parser);
    LoweringSource lowering(timed_parser, device);
    TimedSource timed_lowering(lowering);
    qmap::CountingSink counter;
    TimedSink drop(counter);
    std::unique_ptr<qmap::Router> router = qmap::make_router("sabre");
    router->set_artifacts(runtime.artifacts.get());
    qmap::StreamRouteOptions route_options;
    route_options.chunk_gates = options.chunk_gates;
    route_options.spill_gates = options.spill_gates;
    qmap::obs::Span span(observer, "stream.route_alone", "stream");
    const auto route_start = Clock::now();
    (void)router->route_stream(
        timed_lowering, device,
        qmap::Placement::identity(kQubits, device.num_qubits()), drop,
        route_options);
    const double route_wall = seconds_since(route_start);
    span.end();
    const double lower_s = timed_lowering.seconds() - timed_parser.seconds();
    report.set("decompose.stream_s", lower_s, "s");
    report.set("route.stream_s",
               route_wall - timed_lowering.seconds() - drop.seconds(), "s");
  }

  // --- Check, untimed: input tableau, then one more stream through the
  // check sink.
  qmap::CliffordTableau input_tableau(kQubits);
  long input_two_qubit = 0;
  {
    std::ifstream in(path);
    qmap::QasmStreamSource source(in, "clifford16");
    std::vector<Gate> chunk;
    while (true) {
      chunk.clear();
      if (source.pull(chunk, 4096) == 0) break;
      for (const Gate& gate : chunk) {
        input_tableau.apply(gate);
        if (gate.is_two_qubit()) ++input_two_qubit;
      }
    }
  }
  std::unique_ptr<CheckSink> checker;
  const StreamRun checked = stream([&](qmap::GateSource& source,
                                       qmap::GateSink& sink) {
    checker = std::make_unique<CheckSink>(device, sink);
    return manager.run_stream(source, device, *checker, runtime, options);
  });
  std::string bad;
  if (!checker->legality().violation().empty()) {
    bad = checker->legality().violation();
  } else if (!checker->error().empty()) {
    bad = "output tableau: " + checker->error();
  } else if (!(checker->tableau() == input_tableau)) {
    bad = "output Clifford tableau differs from the input's";
  } else if (checked.report.stream.gates_in != kGates) {
    bad = "stream consumed " + std::to_string(checked.report.stream.gates_in) +
          " of " + std::to_string(kGates) + " gates";
  }
  double gates = 0.0;
  double seconds = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> us_per_gate;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const StreamRun& run = runs[i];
    ++report.attempted;
    if (!bad.empty()) {
      report.fail(bad);
    } else if (run.digest != checked.digest || run.bytes != checked.bytes) {
      report.fail("stream " + std::to_string(i) +
                  " wrote other bytes than the checked stream");
    }
    gates += static_cast<double>(run.report.stream.gates_in);
    seconds += run.seconds;
    latency_ms.push_back(run.seconds * 1e3);
    us_per_gate.push_back(run.seconds * 1e6 /
                          static_cast<double>(run.report.stream.gates_in));
  }

  std::cout << "stream_clifford: streams=" << runs.size()
            << " gates_in=" << checked.report.stream.gates_in
            << " gates_out=" << checked.report.stream.gates_out
            << " bytes_out=" << checked.bytes << "\n";
  if (!traced_run) {
    report.set("setup_s", setup.median_s(), "s");
    report.set("cold_ms.p50", quantile(latency_ms, 0.5), "ms");
    report.set("cold_ms.p90", quantile(latency_ms, 0.9), "ms");
    report.set("hit_us.p50", quantile(us_per_gate, 0.5), "us");
    report.set("gates_per_s", gates / seconds, "gates/s");
    report.set("peak_rss_mb", rss_mb, "MiB");
    report.set("added_cx",
               static_cast<double>(checker->two_qubit_cost() - input_two_qubit),
               "count");
    report.set("latency_cycles", static_cast<double>(checker->cycles()),
               "cycles");
    return;
  }
  report.set("qasm.parse_s", parse_s / traced_streams, "s");
  report.set("qasm.serialize_s", serialize_s / traced_streams, "s");
  report.set("qasm.bytes_out", static_cast<double>(checked.bytes), "bytes");
  report.set("route.window_peak_gates",
             static_cast<double>(runs.back().report.stream.window_peak_gates),
             "count");
  report.set("pass.gates_out",
             static_cast<double>(runs.back().report.stream.gates_out), "count");
  report.set("trace.overhead_pct", overhead.pct(), "%");
}

}  // namespace perfbench
