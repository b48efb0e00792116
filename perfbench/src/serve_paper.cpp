// serve_paper: one client in a closed loop through CompileService::submit.
//
// Each round sends the 15 distinct requests (five paper circuits of at
// most 5 qubits x QX4, QX5, Surface-17) once cold and four more times as
// cache hits, in an order drawn from --seed; a request's first arrival is
// its miss. The cache is emptied at the start of every round, so each
// round's misses run the full portfolio race again while the request
// seeds, and with them every mapping result, stay fixed: added_cx and
// latency_cycles repeat exactly from run to run.
//
// Why 15: cold latencies cluster per request, and with 15 requests the
// median falls on the 8th and the 90th percentile on the 14th slowest
// request's own cluster (mid-block), not in the gap between two clusters.
#include <algorithm>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "engine/portfolio.hpp"
#include "engine/thread_pool.hpp"
#include "harness.hpp"
#include "oracles.hpp"
#include "qasm/openqasm.hpp"
#include "resilience/resilience.hpp"
#include "service/service.hpp"
#include "verify/validity.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using qmap::Circuit;
using qmap::Json;
using qmap::service::CompileService;
using qmap::service::ServiceRequest;
using qmap::service::ServiceResponse;

constexpr int kHitsPerRequest = 4;
/// Compile-pool threads of the service, and of the traced run's portfolio
/// probe. One thread runs the race's strategies one after another, not the
/// service's default of one per CPU: on a 4-vCPU Xeon host two compile
/// threads (the process on 2 or 4 CPUs) raised cold_ms.p50 from ~9 ms to
/// 10-16 ms and spread it 0.23-0.29 (IQR over median, 5 runs), about the
/// largest bound a metric may have; peak RSS rose from ~41 to ~76 MiB.
constexpr int kCompileThreads = 1;
/// Request seed of every compile; rounds differ by an emptied cache.
constexpr std::uint64_t kRequestSeed = 2020;

struct Distinct {
  std::string circuit_name;
  std::size_t device = 0;  // index into the loaded devices
  std::string qasm;
  std::string line;  // the JSON-lines request, minus its id
  std::size_t input_gates = 0;
};

struct Op {
  std::size_t request = 0;
  bool miss = false;
  bool traced = false;
  double latency_us = 0.0;
  std::string reply;  // the JSON-lines response
};

std::vector<Circuit> paper_circuits() {
  using namespace qmap::workloads;
  return {fig1_example(),
          qft(5),
          bernstein_vazirani({1, 0, 1, 1}),
          ghz(5),
          grover(3, 5)};
}

std::vector<qmap::Device> load_devices(const Args& args) {
  return {load_config(args.root, "ibm_qx4.json"),
          load_config(args.root, "ibm_qx5.json"),
          load_config(args.root, "surface17.json")};
}

std::unique_ptr<CompileService> make_service(
    const std::vector<qmap::Device>& devices) {
  qmap::service::ServiceConfig config;
  // One client, one dispatcher and the compile pool.
  config.num_workers = 1;
  config.num_compile_threads = kCompileThreads;
  config.register_builtin_devices = false;
  auto service = std::make_unique<CompileService>(config);
  for (const qmap::Device& device : devices) service->register_device(device);
  return service;
}

std::string strategy_key(const qmap::StrategySpec& spec) {
  std::string key = spec.placer + "-" + spec.router;
  std::replace(key.begin(), key.end(), '+', '-');
  return key;
}

/// One round's arrival order: request i appears 1 + kHitsPerRequest times;
/// its first appearance is the cold miss.
std::vector<Op> round_order(std::size_t distinct, std::uint64_t seed,
                            std::uint64_t round) {
  std::vector<std::size_t> tokens;
  for (std::size_t i = 0; i < distinct; ++i) {
    tokens.insert(tokens.end(), 1 + kHitsPerRequest, i);
  }
  qmap::Rng rng(qmap::Rng::derive_stream(seed, round));
  for (std::size_t i = tokens.size(); i > 1; --i) {
    std::swap(tokens[i - 1], tokens[rng.index(i)]);
  }
  std::vector<bool> seen(distinct, false);
  std::vector<Op> ops;
  for (const std::size_t t : tokens) {
    ops.push_back({t, !seen[t], false, 0.0, {}});
    seen[t] = true;
  }
  return ops;
}

/// Client side of one request: request line in, response line out.
void send(CompileService& service, const Distinct& request,
          const std::string& id, Op& op) {
  const std::string line =
      request.line.substr(0, request.line.size() - 1) + ",\"id\":\"" + id +
      "\"}";
  const auto start = Clock::now();
  ServiceRequest parsed = ServiceRequest::from_json(Json::parse(line));
  std::future<ServiceResponse> reply = service.submit(std::move(parsed));
  op.reply = reply.get().to_json().dump();
  op.latency_us = seconds_since(start) * 1e6;
}

/// Per-layer probes of one request, run outside its timed span: each layer
/// entry point the service calls, timed on its own.
struct Probes {
  std::vector<std::unique_ptr<qmap::resilience::ResilientCompiler>> supervisors;
  std::vector<std::unique_ptr<qmap::PortfolioCompiler>> portfolios;
  std::unique_ptr<qmap::ThreadPool> pool;
};

void probe_request(qmap::obs::Observer* observer, CompileService& service,
                   const std::vector<qmap::Device>& devices, Probes& probes,
                   const Distinct& request, bool miss, const std::string& id) {
  qmap::obs::Span probe(observer, "serve.probe", "probe");
  probe.arg("request", id);
  Circuit circuit;
  {
    qmap::obs::Span span(observer, "qasm.parse", "qasm");
    circuit = qmap::parse_openqasm(request.qasm);
  }
  ServiceRequest parsed = ServiceRequest::from_json(Json::parse(request.line));
  std::string text;
  {
    qmap::obs::Span span(observer, "service.canonical", "service");
    text = qmap::service::canonical_request_text(parsed, circuit, 0.0);
  }
  const std::string key = qmap::content_digest(text);
  {
    qmap::obs::Span span(observer, "service.cache_lookup", "service");
    if (!service.cache().lookup(key)) {
      throw std::runtime_error("answered request missing from the cache");
    }
  }
  if (!miss) return;
  {
    qmap::obs::Span span(observer, "resilience.assess", "resilience");
    (void)probes.supervisors[request.device]->assess(circuit);
  }
  {
    qmap::obs::Span span(observer, "engine.portfolio", "engine");
    (void)probes.portfolios[request.device]->try_compile(circuit,
                                                         *probes.pool);
  }
  const qmap::Device& device = devices[request.device];
  const auto strategies = qmap::PortfolioCompiler::default_portfolio(device);
  for (std::size_t k = 0; k < strategies.size(); ++k) {
    const qmap::StrategySpec& spec = strategies[k];
    if (spec.max_qubits > 0 && circuit.num_qubits() > spec.max_qubits) {
      continue;
    }
    qmap::CompilerOptions options;
    options.placer = spec.placer;
    options.router = spec.router;
    options.seed = qmap::Rng::derive_stream(kRequestSeed, k);
    options.artifacts = probes.portfolios[request.device]->artifacts();
    const qmap::Compiler compiler(device, options);
    qmap::obs::Span span(observer, "engine.strategy." + strategy_key(spec),
                         "engine");
    (void)compiler.compile(circuit);
  }
}

}  // namespace

void run_serve_paper(const Args& args, qmap::obs::Observer* observer,
                     Report& report) {
  const bool traced_run = observer != nullptr;
  // --- Set-up: device configs, service (devices registered, artifacts and
  // supervisors built). Timed on spares after every untraced round
  // (SetupMeter).
  struct Setup {
    std::vector<qmap::Device> devices;
    std::unique_ptr<CompileService> service;
  };
  const auto make_setup = [&] {
    Setup setup;
    setup.devices = load_devices(args);
    setup.service = make_service(setup.devices);
    return setup;
  };
  SetupMeter setup(make_setup);
  setup.burst(0.0);
  Setup live = make_setup();
  const std::vector<qmap::Device>& devices = live.devices;
  CompileService& service = *live.service;

  // --- Inputs: the 15 distinct JSON-lines requests.
  std::vector<Distinct> distinct;
  for (const Circuit& circuit : paper_circuits()) {
    for (std::size_t d = 0; d < devices.size(); ++d) {
      Distinct request;
      request.circuit_name = circuit.name();
      request.device = d;
      request.qasm = qmap::to_openqasm(circuit);
      request.input_gates = circuit.size();
      qmap::JsonObject object;
      object["op"] = Json("compile");
      object["client"] = Json("bench");
      object["device"] = Json(devices[d].name());
      object["qasm"] = Json(request.qasm);
      object["seed"] = Json(static_cast<std::int64_t>(kRequestSeed));
      request.line = Json(std::move(object)).dump();
      distinct.push_back(std::move(request));
    }
  }

  Probes probes;
  if (traced_run) {
    probes.pool = std::make_unique<qmap::ThreadPool>(kCompileThreads);
    for (const qmap::Device& device : devices) {
      probes.supervisors.push_back(
          std::make_unique<qmap::resilience::ResilientCompiler>(device));
      qmap::PortfolioOptions options;
      options.num_threads = kCompileThreads;
      options.base_seed = kRequestSeed;
      probes.portfolios.push_back(
          std::make_unique<qmap::PortfolioCompiler>(device, options));
    }
  }

  const auto run_round = [&](std::uint64_t round, bool traced) {
    std::vector<Op> ops = round_order(distinct.size(), args.seed, round);
    service.cache().clear();
    for (std::size_t k = 0; k < ops.size(); ++k) {
      Op& op = ops[k];
      op.traced = traced;
      const std::string id = "r" + std::to_string(round) + "-" +
                             std::to_string(k);
      if (traced) {
        {
          qmap::obs::Span span(observer,
                               op.miss ? "serve.request.miss"
                                       : "serve.request.hit",
                               "serve");
          span.arg("request", id);
          send(service, distinct[op.request], id, op);
        }
        probe_request(observer, service, devices, probes,
                      distinct[op.request], op.miss, id);
      } else {
        send(service, distinct[op.request], id, op);
      }
    }
    return ops;
  };

  // --- Timed loop: whole rounds until --seconds have passed. A traced run
  // alternates untraced and traced rounds (see OverheadMeter); a traced
  // round's time includes its probes.
  std::vector<Op> all;
  std::uint64_t rounds = 0;
  OverheadMeter overhead;
  const auto start = Clock::now();
  do {
    const bool traced = overhead.next_traced(traced_run);
    const auto round_start = Clock::now();
    std::vector<Op> ops = run_round(rounds++, traced);
    overhead.add(traced, seconds_since(round_start));
    all.insert(all.end(), ops.begin(), ops.end());
    if (!traced_run) setup.burst(kSetupShare * seconds_since(round_start));
  } while (seconds_since(start) < args.seconds ||
           !overhead.complete(traced_run));
  const double rss_mb = peak_rss_mb();

  // --- Checks, untimed. Oracle: resilience::compile of each distinct
  // request, equivalence- and legality-checked, whose digest every reply
  // must carry.
  std::vector<std::string> oracle_digest(distinct.size());
  std::vector<bool> oracle_ok(distinct.size(), false);
  long added = 0;
  long cycles = 0;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    const Distinct& request = distinct[i];
    const qmap::Device& device = devices[request.device];
    const Circuit circuit = qmap::parse_openqasm(request.qasm);
    qmap::resilience::Policy policy;
    policy.seed = kRequestSeed;
    policy.num_threads = 1;
    const qmap::resilience::CompileOutcome outcome =
        qmap::resilience::compile(circuit, device, policy);
    const std::string what = request.circuit_name + "@" + device.name();
    if (!outcome.ok) {
      report.fail(what + ": oracle compile failed: " + outcome.error);
      continue;
    }
    if (const std::string bad = check_compile(outcome.result, device, i + 1);
        !bad.empty()) {
      report.fail(what + ": " + bad);
      continue;
    }
    if (traced_run) {
      qmap::obs::Span span(observer, "verify.validity", "verify");
      (void)qmap::verify::ValidityChecker(device).check_result(outcome.result);
    }
    oracle_digest[i] = qmap::content_digest(outcome.fingerprint());
    oracle_ok[i] = true;
    added += added_cx(outcome.result);
    cycles += outcome.result.scheduled_cycles;
  }

  std::vector<double> cold_ms;
  std::vector<double> hit_us;
  double cold_s = 0.0;
  double cold_gates = 0.0;
  std::map<std::string, double> wins;
  std::map<std::string, std::vector<double>> per_program;
  for (const Op& op : all) {
    ++report.attempted;
    const Distinct& request = distinct[op.request];
    const std::string what = request.circuit_name + "@" +
                             devices[request.device].name() +
                             (op.miss ? " miss" : " hit");
    const Json reply = Json::parse(op.reply);
    const Json* status = reply.find("status");
    const Json* cache = reply.find("cache");
    const Json* digest = reply.find("fingerprint");
    if (!oracle_ok[op.request]) {
      report.fail(what + ": output failed its check");
    } else if (!status || status->as_string() != "ok") {
      report.fail(what + ": reply " + op.reply);
    } else if (!cache || cache->as_string() != (op.miss ? "miss" : "hit")) {
      report.fail(what + ": wrong cache outcome in " + op.reply);
    } else if (!digest || digest->as_string() != oracle_digest[op.request]) {
      report.fail(what + ": fingerprint differs from the oracle compile");
    }
    if (op.miss) {
      cold_ms.push_back(op.latency_us / 1e3);
      per_program[request.circuit_name + "@" + devices[request.device].name()]
          .push_back(op.latency_us / 1e3);
      cold_s += op.latency_us * 1e-6;
      cold_gates += static_cast<double>(request.input_gates);
      if (op.traced) {
        if (const Json* winner = reply.find("winner")) {
          std::string label = winner->as_string();
          std::replace(label.begin(), label.end(), '+', '-');
          wins["engine.wins." + label] += 1.0;
        }
      }
    } else {
      hit_us.push_back(op.latency_us);
    }
  }

  std::cout << "serve_paper: rounds=" << rounds << " misses=" << cold_ms.size()
            << " hits=" << hit_us.size() << " distinct=" << distinct.size()
            << "\n";
  std::cout << "cold misses per request:\n";
  print_latency_rows(per_program);
  if (!traced_run) {
    report.set("setup_s", setup.median_s(), "s");
    report.set("cold_ms.p50", quantile(cold_ms, 0.5), "ms");
    report.set("cold_ms.p90", quantile(cold_ms, 0.9), "ms");
    report.set("hit_us.p50", quantile(hit_us, 0.5), "us");
    report.set("gates_per_s", cold_gates / cold_s, "gates/s");
    report.set("peak_rss_mb", rss_mb, "MiB");
    report.set("added_cx", static_cast<double>(added), "count");
    report.set("latency_cycles", static_cast<double>(cycles), "cycles");
    return;
  }
  const double traced_rounds = static_cast<double>(overhead.traced_count());
  report.set("trace.overhead_pct", overhead.pct(), "%");
  report.set("qasm.parse_us.p50", median(span_us(*observer, "qasm.parse")),
             "us");
  report.set("service.canonical_us.p50",
             median(span_us(*observer, "service.canonical")), "us");
  report.set("service.cache_lookup_us.p50",
             median(span_us(*observer, "service.cache_lookup")), "us");
  report.set("resilience.assess_us.p50",
             median(span_us(*observer, "resilience.assess")), "us");
  const std::vector<double> portfolio_us =
      span_us(*observer, "engine.portfolio");
  report.set("engine.portfolio_ms.p50", quantile(portfolio_us, 0.5) / 1e3,
             "ms");
  report.set("engine.portfolio_ms.p90", quantile(portfolio_us, 0.9) / 1e3,
             "ms");
  const double cold_requests = static_cast<double>(portfolio_us.size());
  for (const qmap::StrategySpec& spec :
       qmap::PortfolioCompiler::default_portfolio(devices.back())) {
    const std::string key = strategy_key(spec);
    report.set("engine.strategy_ms." + key,
               span_total_s(*observer, "engine.strategy." + key) * 1e3 /
                   cold_requests,
               "ms");
    report.set("engine.wins." + key, wins["engine.wins." + key] / traced_rounds,
               "count");
  }
  report.set("verify.validity_ms",
             median(span_us(*observer, "verify.validity")) / 1e3, "ms");
}

}  // namespace perfbench
