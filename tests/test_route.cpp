// Router property tests.
//
// For every (router, device, workload) combination:
//   1. the routed circuit only uses coupling-legal interactions/orientations
//      (after SWAP expansion and direction fixing),
//   2. the routed circuit is unitarily equivalent to the input under the
//      reported initial/final placements,
//   3. routing statistics are internally consistent.
// Plus router-specific guarantees (exact <= heuristics on shared
// instances; naive >= smarter routers on the Fig. 3 example).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>

#include "arch/builtin.hpp"
#include "arch/config.hpp"
#include "common/digest.hpp"
#include "core/compiler.hpp"
#include "decompose/decomposer.hpp"
#include "layout/placers.hpp"
#include "route/astar_layer.hpp"
#include "route/bridge.hpp"
#include "route/exact.hpp"
#include "route/naive.hpp"
#include "route/qmap_router.hpp"
#include "route/sabre.hpp"
#include "route/token_swap.hpp"
#include "sim/equivalence.hpp"
#include "sim/stabilizer.hpp"
#include "verify/validity.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

/// Shared post-condition for every routing result: after SWAP expansion
/// and direction repair the circuit passes the verify-subsystem audit
/// (coupling edges, orientations, measurability) and is unitarily
/// equivalent to the input under the reported placements. Swap-count
/// assertions alone would accept a router that silently corrupts the
/// permutation; this closes that hole.
void expect_routed_valid_and_equivalent(const Circuit& original,
                                        const Device& device,
                                        const RoutingResult& result) {
  Circuit legal = expand_swaps(result.circuit, device);
  legal = fix_cx_directions(legal, device);
  verify::CheckOptions options;
  options.require_native = false;  // audit happens before gate lowering
  const verify::ValidityReport report =
      verify::ValidityChecker(device, options).check_circuit(legal);
  EXPECT_TRUE(report.ok()) << report.to_string();
  Rng rng(99);
  EXPECT_TRUE(mapping_equivalent(original.unitary_part(),
                                 legal.unitary_part(),
                                 result.initial.wire_to_phys(),
                                 result.final.wire_to_phys(), rng, 3));
}

struct RouteCase {
  std::string router;
  std::string device;
  std::string workload;
};

std::string case_name(const testing::TestParamInfo<RouteCase>& info) {
  return info.param.router + "_" + info.param.device + "_" +
         info.param.workload;
}

Device get_device(const std::string& name) {
  if (name == "qx4") return devices::ibm_qx4();
  if (name == "qx5") return devices::ibm_qx5();
  if (name == "s17") return devices::surface17();
  if (name == "s7") return devices::surface7();
  if (name == "line5") return devices::linear(5);
  if (name == "grid9") return devices::grid(3, 3);
  throw std::runtime_error("unknown device " + name);
}

Circuit get_workload(const std::string& name) {
  Rng rng(2026);
  if (name == "fig1") return workloads::fig1_example();
  if (name == "ghz4") return workloads::ghz(4);
  if (name == "ghz5") return workloads::ghz(5);
  if (name == "qft4") return workloads::qft(4);
  if (name == "bv4") {
    Circuit c = workloads::bernstein_vazirani({1, 0, 1}).unitary_part();
    return c;
  }
  if (name == "random") return workloads::random_circuit(4, 30, rng, 0.4);
  if (name == "random5") return workloads::random_circuit(5, 40, rng, 0.4);
  throw std::runtime_error("unknown workload " + name);
}

class RouterProperty : public testing::TestWithParam<RouteCase> {};

TEST_P(RouterProperty, RoutedCircuitIsLegalAndEquivalent) {
  const RouteCase& param = GetParam();
  const Device device = get_device(param.device);
  const Circuit circuit = get_workload(param.workload);
  ASSERT_LE(circuit.num_qubits(), device.num_qubits());

  // Route the (un-lowered) circuit directly: routers accept any arity-<=2
  // gates. CPhase on directed devices cannot be direction-fixed, so lower
  // first exactly as the compiler pipeline does.
  const Circuit input = lower_to_device(circuit, device, /*keep_swaps=*/true);
  const Placement initial = GreedyPlacer().place(input, device);
  const auto router = make_router(param.router);
  const RoutingResult result = router->route(input, device, initial);

  // Stats consistency: output SWAPs = routing SWAPs + program SWAPs
  // (e.g. the QFT's final reversal SWAPs are semantic gates, not routing).
  std::size_t program_swaps = 0;
  for (const Gate& gate : input) {
    if (gate.kind == GateKind::SWAP) ++program_swaps;
  }
  std::size_t swap_count = 0;
  for (const Gate& gate : result.circuit) {
    if (gate.kind == GateKind::SWAP) ++swap_count;
  }
  EXPECT_EQ(swap_count, result.added_swaps + program_swaps);
  EXPECT_EQ(result.initial, initial);

  // CX accounting: each BRIDGE contributes exactly 3 extra CXs over the
  // gate it realizes, and nothing else mints or destroys CXs (direction
  // fixes rewrite a CX into H·CX·H, preserving the count).
  std::size_t program_cx = 0;
  for (const Gate& gate : input) {
    if (gate.kind == GateKind::CX) ++program_cx;
  }
  std::size_t routed_cx = 0;
  for (const Gate& gate : result.circuit) {
    if (gate.kind == GateKind::CX) ++routed_cx;
  }
  EXPECT_EQ(routed_cx, program_cx + 3 * result.added_bridges);

  // Legality after SWAP expansion + direction repair.
  Circuit legal = expand_swaps(result.circuit, device);
  legal = fix_cx_directions(legal, device);
  EXPECT_TRUE(respects_coupling(legal, device));

  // Unitary equivalence under the reported placements.
  Rng rng(99);
  EXPECT_TRUE(mapping_equivalent(circuit, legal,
                                 result.initial.wire_to_phys(),
                                 result.final.wire_to_phys(), rng, 3));
}

const char* kRouters[] = {"naive", "sabre", "bridge", "astar", "qmap"};
const char* kDevices[] = {"qx4", "s17", "s7", "line5", "grid9"};
const char* kWorkloads[] = {"fig1", "ghz4", "qft4", "random"};

std::vector<RouteCase> all_cases() {
  std::vector<RouteCase> cases;
  for (const char* router : kRouters) {
    for (const char* device : kDevices) {
      for (const char* workload : kWorkloads) {
        cases.push_back({router, device, workload});
      }
    }
  }
  // Exact router only on the small device (by design).
  for (const char* workload : kWorkloads) {
    cases.push_back({"exact", "qx4", workload});
    cases.push_back({"exact", "line5", workload});
  }
  // Bigger instances for the scalable routers.
  for (const char* router : {"sabre", "bridge", "astar", "qmap"}) {
    cases.push_back({router, "qx5", "random5"});
    cases.push_back({router, "s17", "random5"});
    cases.push_back({router, "qx5", "ghz5"});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, RouterProperty,
                         testing::ValuesIn(all_cases()), case_name);

// --- Router-specific guarantees ---

/// Dependency-chain CNOTs (each shares a qubit with its predecessor), the
/// instance family of bench_exact_scalability: no commuting freedom, so
/// the order-exact router lower-bounds every heuristic.
Circuit chain_circuit(int n, int gates, Rng& rng) {
  Circuit circuit(n, "chain" + std::to_string(n));
  int previous = 0;
  for (int g = 0; g < gates; ++g) {
    int other = static_cast<int>(rng.index(static_cast<std::size_t>(n - 1)));
    if (other >= previous) ++other;
    circuit.cx(previous, other);
    previous = other;
  }
  return circuit;
}

/// bench_exact_scalability's n-qubit instance on devices::linear(n).
Circuit exact_scalability_chain(int n) {
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  return chain_circuit(n, 12, rng);
}

TEST(ExactRouter, NeverWorseThanHeuristicsOnQx4) {
  // Exact minimality holds w.r.t. the given total gate order, so compare on
  // chain circuits: there the heuristics have no reordering freedom.
  const Device qx4 = devices::ibm_qx4();
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const Circuit circuit = chain_circuit(4, 10, rng);
    const Placement initial =
        Placement::identity(circuit.num_qubits(), qx4.num_qubits());
    const RoutingResult exact = ExactRouter().route(circuit, qx4, initial);
    expect_routed_valid_and_equivalent(circuit, qx4, exact);
    for (const char* name : {"naive", "sabre", "astar", "qmap"}) {
      const RoutingResult heuristic =
          make_router(name)->route(circuit, qx4, initial);
      EXPECT_LE(exact.added_swaps, heuristic.added_swaps)
          << "exact beat by " << name << " on trial " << trial;
      expect_routed_valid_and_equivalent(circuit, qx4, heuristic);
    }
  }
}

TEST(ExactRouter, ZeroSwapsWhenAlreadyRoutable) {
  const Device line = devices::linear(4);
  Circuit c(4);
  c.cx(0, 1).cx(1, 2).cx(2, 3);
  const RoutingResult result = ExactRouter().route(
      c, line, Placement::identity(4, 4));
  EXPECT_EQ(result.added_swaps, 0u);
  expect_routed_valid_and_equivalent(c, line, result);
}

TEST(ExactRouter, SingleSwapOnLineEndToEnd) {
  // cx(0, 2) on a 3-qubit line needs exactly one SWAP.
  const Device line = devices::linear(3);
  Circuit c(3);
  c.cx(0, 2);
  const RoutingResult result =
      ExactRouter().route(c, line, Placement::identity(3, 3));
  EXPECT_EQ(result.added_swaps, 1u);
  expect_routed_valid_and_equivalent(c, line, result);
}

TEST(ExactRouter, ThrowsWhenStateBudgetExceeded) {
  ExactRouter::Options options;
  options.max_states = 10;
  const Device grid = devices::grid(3, 3);
  Rng rng(5);
  const Circuit circuit = workloads::random_circuit(8, 30, rng, 0.7);
  EXPECT_THROW((void)ExactRouter(options).route(
                   circuit, grid, Placement::identity(8, 9)),
               MappingError);
}

// --- Exact router: golden pin, budget boundary, key-encoding edges ---
//
// ExactRouter packs each search state (pending gate, placement) into one
// integer whose numeric order is the lexicographic state order, so the
// Dijkstra pops, tie-breaks and settles states in a fixed order. The
// golden file pins the results of that order; regenerate it only after an
// intentional behavior change:
//   QMAP_REGEN_GOLDEN=1 ./build/tests/test_route
//       --gtest_filter='ExactRouter.MatchesGoldenFingerprints'
// then review and commit the diff.

std::string exact_golden_path() {
  return std::string(QMAP_GOLDEN_DIR) + "/exact_fingerprints.txt";
}

std::string routing_digest(const RoutingResult& result) {
  return content_digest(result.circuit.to_string() + "|" +
                        result.initial.to_string() + "|" +
                        result.final.to_string() + "|" +
                        std::to_string(result.added_swaps) + "|" +
                        std::to_string(result.direction_fixes));
}

/// Program qubit k on physical qubit k, with every coupling edge among the
/// first n physical qubits run once as a CX: all-adjacent, so the exact
/// router must answer with zero SWAPs however wide the state key gets.
Circuit edge_circuit(const Device& device, int n) {
  Circuit circuit(n, "edges" + std::to_string(n));
  for (const auto& edge : device.coupling().edges()) {
    if (edge.a < n && edge.b < n) circuit.cx(edge.a, edge.b);
  }
  return circuit;
}

/// `edge_circuit` plus one CX between physical qubit 0 and the first
/// qubit at hop distance 2 from it: exactly one SWAP is due.
Circuit edge_circuit_plus_swap(const Device& device, int n) {
  Circuit circuit = edge_circuit(device, n);
  for (int q = 1; q < n; ++q) {
    if (device.coupling().distance(0, q) == 2) {
      circuit.cx(0, q);
      return circuit;
    }
  }
  throw std::runtime_error("no distance-2 partner of qubit 0");
}

/// ExactRouter on `circuit` lowered for `device` (as the pipeline does).
RoutingResult route_exact(const Circuit& circuit, const Device& device,
                          const Placement& initial,
                          const ExactRouter::Options& options = {}) {
  const Circuit input = lower_to_device(circuit, device, /*keep_swaps=*/true);
  return ExactRouter(options).route(input, device, initial);
}

std::map<std::string, std::string> exact_digests() {
  std::map<std::string, std::string> out;
  // greedy+exact compiles of the paper circuits on the committed configs.
  const std::vector<std::pair<std::string, Circuit>> circuits = {
      {"fig1", workloads::fig1_example()},
      {"qft5", workloads::qft(5)},
      {"bv4", workloads::bernstein_vazirani({1, 0, 1, 1})},
      {"ghz5", workloads::ghz(5)},
      {"grover3", workloads::grover(3, 5)}};
  for (const char* config : {"ibm_qx4", "ibm_qx5", "surface17"}) {
    const Device device = load_device(std::string(QMAP_CONFIG_DIR) + "/" +
                                      config + ".json");
    CompilerOptions options;
    options.placer = "greedy";
    options.router = "exact";
    const Compiler compiler(device, options);
    for (const auto& [name, circuit] : circuits) {
      out["compile:" + name + "@" + config] =
          content_digest(compiler.compile(circuit).fingerprint());
    }
  }
  // bench_exact_scalability's chain instances.
  for (int n = 3; n <= 7; ++n) {
    const Device line = devices::linear(n);
    const RoutingResult result = ExactRouter().route(
        exact_scalability_chain(n), line, Placement::identity(n, n));
    out["route:chain" + std::to_string(n) + "@linear" + std::to_string(n)] =
        routing_digest(result);
  }
  // Key-encoding edges. QX5 has 16 qubits, so a placement digit of 15
  // fills every digit bit; Surface-17 needs 5 bits per digit, so 13
  // program qubits put a digit across bit 64.
  const Device qx5 = devices::ibm_qx5();
  const Device s17 = devices::surface17();
  out["route:ghz16@ibm_qx5"] = routing_digest(
      route_exact(workloads::ghz(16), qx5, Placement::identity(16, 16)));
  out["route:edges16@ibm_qx5"] = routing_digest(
      route_exact(edge_circuit(qx5, 16), qx5, Placement::identity(16, 16)));
  out["route:edges13@surface17"] = routing_digest(
      route_exact(edge_circuit(s17, 13), s17, Placement::identity(13, 17)));
  out["route:edges13swap@surface17"] =
      routing_digest(route_exact(edge_circuit_plus_swap(s17, 13), s17,
                                 Placement::identity(13, 17)));
  out["route:edges16swap@ibm_qx5"] =
      routing_digest(route_exact(edge_circuit_plus_swap(qx5, 16), qx5,
                                 Placement::identity(16, 16)));
  out["route:qft5top@ibm_qx5"] = routing_digest(route_exact(
      workloads::qft(5), qx5,
      Placement::from_program_map({15, 14, 13, 12, 11}, 16)));
  out["route:qft5top@surface17"] = routing_digest(route_exact(
      workloads::qft(5), s17,
      Placement::from_program_map({16, 15, 14, 13, 12}, 17)));
  return out;
}

TEST(ExactRouter, MatchesGoldenFingerprints) {
  const std::map<std::string, std::string> actual = exact_digests();

  const char* regen = std::getenv("QMAP_REGEN_GOLDEN");
  if (regen != nullptr && *regen != '\0') {
    std::ofstream out(exact_golden_path(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << exact_golden_path();
    for (const auto& [id, digest] : actual) out << id << ' ' << digest << '\n';
    GTEST_SKIP() << "regenerated " << exact_golden_path();
  }

  std::map<std::string, std::string> golden;
  std::ifstream in(exact_golden_path());
  std::string id;
  std::string digest;
  while (in >> id >> digest) golden[id] = digest;
  ASSERT_FALSE(golden.empty())
      << "no golden fingerprints at " << exact_golden_path()
      << " (QMAP_REGEN_GOLDEN=1 generates them)";
  ASSERT_EQ(actual.size(), golden.size());
  for (const auto& [case_id, case_digest] : actual) {
    const auto it = golden.find(case_id);
    ASSERT_NE(it, golden.end()) << "missing golden for " << case_id;
    EXPECT_EQ(case_digest, it->second) << case_id << ": exact router drifted";
  }
}

TEST(ExactRouter, WideAllAdjacentInputsNeedNoSwaps) {
  // 16 program qubits on QX5 need a key wider than 64 bits; the wide key
  // must route what fits without any SWAP, and stay legal when one is due.
  const Device qx5 = devices::ibm_qx5();
  const Circuit ghz16 = workloads::ghz(16);
  const RoutingResult result =
      route_exact(ghz16, qx5, Placement::identity(16, 16));
  EXPECT_EQ(result.added_swaps, 0u);
  Circuit legal = fix_cx_directions(expand_swaps(result.circuit, qx5), qx5);
  EXPECT_TRUE(respects_coupling(legal, qx5));

  const Device s17 = devices::surface17();
  const RoutingResult swapped = route_exact(edge_circuit_plus_swap(s17, 13),
                                            s17, Placement::identity(13, 17));
  EXPECT_EQ(swapped.added_swaps, 1u);
  legal = fix_cx_directions(expand_swaps(swapped.circuit, s17), s17);
  EXPECT_TRUE(respects_coupling(legal, s17));
}

TEST(ExactRouter, RejectsStatesWiderThanTheWideKey) {
  // 26 program qubits on a 26-qubit line need 26 x 5 placement bits plus
  // the gate digit: more than 128. The router refuses up front instead of
  // truncating the state.
  const Device line = devices::linear(26);
  try {
    (void)ExactRouter().route(workloads::ghz(26), line,
                              Placement::identity(26, 26));
    ADD_FAILURE() << "a 135-bit state should be rejected";
  } catch (const MappingError& e) {
    EXPECT_NE(std::string(e.what()).find("128-bit state key"),
              std::string::npos)
        << e.what();
  }
}

// The smallest state budgets these searches succeed with, found by
// bisection on the std::map search that preceded the packed-key table.
// Dijkstra settles states in a fixed order, so any change to which states
// are stored, or when, moves the boundary.
constexpr std::size_t kQft5Qx5GreedyMinStates = 45110;
constexpr std::size_t kChain6MinStates = 6173;

void expect_budget_boundary(const Circuit& circuit, const Device& device,
                            const Placement& initial, std::size_t budget) {
  ExactRouter::Options options;
  options.max_states = budget;
  EXPECT_NO_THROW((void)route_exact(circuit, device, initial, options));
  options.max_states = budget - 1;
  try {
    (void)route_exact(circuit, device, initial, options);
    ADD_FAILURE() << "budget " << budget - 1 << " should be exceeded";
  } catch (const MappingError& e) {
    EXPECT_NE(std::string(e.what()).find("state budget exceeded"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExactRouter, StateBudgetBoundaryIsPinned) {
  const Device qx5 = devices::ibm_qx5();
  const Circuit qft5 = workloads::qft(5);
  const Placement greedy =
      GreedyPlacer().place(lower_to_device(qft5, qx5, true), qx5);
  expect_budget_boundary(qft5, qx5, greedy, kQft5Qx5GreedyMinStates);
  expect_budget_boundary(exact_scalability_chain(6), devices::linear(6),
                         Placement::identity(6, 6), kChain6MinStates);
}

TEST(Routers, NaiveIsTheOverheadBaselineOnFig1Skeleton) {
  // Fig. 3: the naive solution "yields a significant overhead", heuristics
  // are "significantly cheaper", the exact result is minimal.
  const Device qx4 = devices::ibm_qx4();
  const Circuit skeleton = workloads::fig1_skeleton();
  const Placement initial =
      Placement::identity(skeleton.num_qubits(), qx4.num_qubits());
  const RoutingResult naive = NaiveRouter().route(skeleton, qx4, initial);
  const RoutingResult exact = ExactRouter().route(skeleton, qx4, initial);
  EXPECT_LE(exact.added_swaps, naive.added_swaps);
  expect_routed_valid_and_equivalent(skeleton, qx4, naive);
  expect_routed_valid_and_equivalent(skeleton, qx4, exact);
}

TEST(Routers, RejectArityThreeGates) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(3);
  c.ccx(0, 1, 2);
  for (const char* name : {"naive", "sabre", "bridge", "astar", "exact",
                           "qmap"}) {
    EXPECT_THROW((void)make_router(name)->route(
                     c, qx4, Placement::identity(3, 5)),
                 MappingError)
        << name;
  }
}

TEST(Routers, RejectOversizedCircuits) {
  const Device qx4 = devices::ibm_qx4();
  const Circuit c = workloads::ghz(6);
  for (const char* name : {"naive", "sabre", "bridge", "astar", "exact",
                           "qmap"}) {
    EXPECT_THROW((void)make_router(name)->route(
                     c, qx4, Placement::identity(6, 6)),
                 MappingError)
        << name;
  }
}

TEST(Routers, EmptyCircuitRoutesToEmpty) {
  const Device s7 = devices::surface7();
  const Circuit c(3, "empty");
  for (const char* name : {"naive", "sabre", "bridge", "astar", "exact",
                           "qmap"}) {
    const RoutingResult result =
        make_router(name)->route(c, s7, Placement::identity(3, 7));
    EXPECT_EQ(result.circuit.size(), 0u) << name;
    EXPECT_EQ(result.added_swaps, 0u) << name;
  }
}

TEST(Routers, SingleQubitOnlyCircuitNeedsNoSwaps) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(4);
  c.h(0).t(1).x(2).rz(0.4, 3);
  for (const char* name : {"naive", "sabre", "bridge", "astar", "exact",
                           "qmap"}) {
    const RoutingResult result =
        make_router(name)->route(c, qx4, Placement::identity(4, 5));
    EXPECT_EQ(result.added_swaps, 0u) << name;
    EXPECT_EQ(result.circuit.size(), c.size()) << name;
    expect_routed_valid_and_equivalent(c, qx4, result);
  }
}

TEST(Routers, MeasurementsSurviveRouting) {
  const Device s7 = devices::surface7();
  Circuit c = workloads::ghz(3);
  c.measure_all();
  const RoutingResult result =
      SabreRouter().route(c, s7, GreedyPlacer().place(c, s7));
  std::size_t measures = 0;
  for (const Gate& gate : result.circuit) {
    if (gate.kind == GateKind::Measure) ++measures;
  }
  EXPECT_EQ(measures, 3u);
  expect_routed_valid_and_equivalent(c, s7, result);
}

// --- BridgeRouter / BRIDGE template ---

TEST(BridgeRouter, EmitsTheFourCxTemplateOnALine) {
  // cx(0, 2) on a 3-qubit line: distance 2, nothing else in the front
  // layer, so the router must bridge instead of swapping — and the
  // template bytes are pinned: CX(c,m) CX(m,t) CX(c,m) CX(m,t).
  const Device line = devices::linear(3);
  Circuit c(3);
  c.cx(0, 2);
  const RoutingResult result =
      BridgeRouter().route(c, line, Placement::identity(3, 3));
  EXPECT_EQ(result.added_bridges, 1u);
  EXPECT_EQ(result.added_swaps, 0u);
  EXPECT_EQ(result.final, result.initial);
  ASSERT_EQ(result.circuit.size(), 4u);
  const int expected[4][2] = {{0, 1}, {1, 2}, {0, 1}, {1, 2}};
  for (std::size_t i = 0; i < 4; ++i) {
    const Gate& gate = result.circuit.gate(i);
    EXPECT_EQ(gate.kind, GateKind::CX) << "gate " << i;
    EXPECT_EQ(gate.qubits[0], expected[i][0]) << "gate " << i;
    EXPECT_EQ(gate.qubits[1], expected[i][1]) << "gate " << i;
  }
  expect_routed_valid_and_equivalent(c, line, result);
}

TEST(BridgeRouter, BridgeLeavesThePlacementAlone) {
  // A lone distance-2 CX must never move qubits: final == initial even
  // though the gate was not directly executable.
  const Device qx5 = devices::ibm_qx5();
  Circuit c(3);
  c.h(0).cx(0, 2).h(2);
  const Placement initial = GreedyPlacer().place(c, qx5);
  const RoutingResult result = BridgeRouter().route(c, qx5, initial);
  if (result.added_swaps == 0) {
    EXPECT_EQ(result.final, result.initial);
  }
  expect_routed_valid_and_equivalent(c, qx5, result);
}

TEST(RoutingEmitter, BridgeIsLegalAndEquivalentOnEveryDistance2Pair) {
  // Property: for every ordered physical pair at hop distance exactly 2
  // on the real devices, emit_bridge produces a coupling-legal 4-CX
  // realization (direction-repaired where needed) equivalent to the
  // direct CX, without touching the placement.
  for (const Device& device :
       {devices::ibm_qx4(), devices::ibm_qx5(), devices::surface17()}) {
    const int n = device.num_qubits();
    const CouplingGraph& coupling = device.coupling();
    std::size_t pairs = 0;
    for (int c = 0; c < n; ++c) {
      for (int t = 0; t < n; ++t) {
        if (c == t || coupling.distance(c, t) != 2) continue;
        const std::vector<int> path = coupling.shortest_path(c, t);
        ASSERT_EQ(path.size(), 3u);
        const Placement identity = Placement::identity(n, n);
        RoutingEmitter emitter(device, identity, "bridge");
        emitter.emit_bridge(c, path[1], t);
        const RoutingResult result = std::move(emitter).finish(identity, 0.0);
        EXPECT_EQ(result.added_bridges, 1u);
        EXPECT_TRUE(respects_coupling(result.circuit, device))
            << device.name() << " Q" << c << "->Q" << t;
        EXPECT_EQ(result.final, result.initial);
        Circuit direct(n);
        direct.cx(c, t);
        // The bridge is Clifford, so the exact tableau oracle applies at
        // any width (QX5/Surface-17 are 16/17 qubits).
        EXPECT_TRUE(clifford_mapping_equivalent(
            direct, result.circuit, identity.wire_to_phys(),
            identity.wire_to_phys()))
            << device.name() << " Q" << c << "->Q" << t;
        ++pairs;
      }
    }
    EXPECT_GT(pairs, 0u) << device.name();
  }
}

TEST(RoutingEmitter, BridgeRejectsIllegalTriples) {
  const Device line = devices::linear(4);
  const Placement identity = Placement::identity(4, 4);
  {  // non-distinct qubits
    RoutingEmitter emitter(line, identity, "t");
    EXPECT_THROW(emitter.emit_bridge(0, 1, 0), MappingError);
  }
  {  // second leg not adjacent
    RoutingEmitter emitter(line, identity, "t");
    EXPECT_THROW(emitter.emit_bridge(0, 1, 3), MappingError);
  }
  {  // control/target adjacent (QX4's 0-1-2 triangle): emit the CX instead
    const Device qx4 = devices::ibm_qx4();
    RoutingEmitter emitter(qx4, Placement::identity(5, 5), "t");
    EXPECT_THROW(emitter.emit_bridge(0, 2, 1), MappingError);
  }
}

// --- Token swapping ---

/// Applies a plan to `start`, asserting every structural invariant along
/// the way: pairs are coupling edges, rounds are vertex-disjoint.
Placement apply_plan(const TokenSwapPlan& plan, const Placement& start,
                     const Device& device) {
  Placement place = start;
  for (const SwapRound& round : plan.rounds) {
    std::vector<bool> touched(
        static_cast<std::size_t>(device.num_qubits()), false);
    for (const auto& [a, b] : round) {
      EXPECT_TRUE(device.coupling().connected(a, b))
          << "Q" << a << ", Q" << b;
      EXPECT_FALSE(touched[static_cast<std::size_t>(a)]) << "Q" << a;
      EXPECT_FALSE(touched[static_cast<std::size_t>(b)]) << "Q" << b;
      touched[static_cast<std::size_t>(a)] = true;
      touched[static_cast<std::size_t>(b)] = true;
      place.apply_swap(a, b);
    }
  }
  return place;
}

void expect_program_wires_home(const Placement& place,
                               const Placement& target) {
  for (int w = 0; w < target.num_program_qubits(); ++w) {
    EXPECT_EQ(place.phys_of_wire(w), target.phys_of_wire(w)) << "wire " << w;
  }
}

TEST(TokenSwap, RestoresRandomPermutationsOnEveryDevice) {
  Rng rng(4242);
  for (const Device& device :
       {devices::ibm_qx4(), devices::surface17(), devices::grid(3, 3),
        devices::linear(5)}) {
    const int n = device.num_qubits();
    for (int trial = 0; trial < 12; ++trial) {
      // Vary the program width so free (don't-care) wires get exercised.
      const int k = 2 + static_cast<int>(rng.index(
                            static_cast<std::size_t>(n - 1)));
      const auto scramble = [&] {
        Placement place = Placement::identity(k, n);
        for (int step = 0; step < 3 * n; ++step) {
          const auto& edge = device.coupling().edges()[rng.index(
              device.coupling().edges().size())];
          place.apply_swap(edge.a, edge.b);
        }
        return place;
      };
      const Placement current = scramble();
      const Placement target = scramble();
      const TokenSwapPlan plan =
          plan_token_swaps(current, target, device, nullptr);
      const Placement reached = apply_plan(plan, current, device);
      expect_program_wires_home(reached, target);
    }
  }
}

TEST(TokenSwap, ParallelRoundsBeatTheSequentialChainOnDisjointCycles) {
  // Two disjoint transpositions on a 4-line: one round of two parallel
  // swaps suffices; a sequential chain would serialize them.
  const Device line = devices::linear(4);
  Placement current = Placement::identity(4, 4);
  current.apply_swap(0, 1);
  current.apply_swap(2, 3);
  const Placement target = Placement::identity(4, 4);
  const TokenSwapPlan plan = plan_token_swaps(current, target, line, nullptr);
  ASSERT_EQ(plan.rounds.size(), 1u);
  EXPECT_EQ(plan.rounds[0].size(), 2u);
  expect_program_wires_home(apply_plan(plan, current, line), target);
}

TEST(TokenSwap, EscapesTheDistance2TranspositionStall) {
  // Swapping the endpoints of a 3-line while the middle stays put: no
  // single swap has positive gain, so the zero-gain escape must engage.
  const Device line = devices::linear(3);
  Placement current = Placement::identity(3, 3);
  current.apply_swap(0, 1);
  current.apply_swap(1, 2);
  current.apply_swap(0, 1);  // net effect: wires 0 and 2 exchanged
  const Placement target = Placement::identity(3, 3);
  const TokenSwapPlan plan = plan_token_swaps(current, target, line, nullptr);
  EXPECT_GE(plan.escape_swaps, 1u);
  expect_program_wires_home(apply_plan(plan, current, line), target);
}

TEST(TokenSwap, SpanningTreeFallbackAlwaysTerminates) {
  // Escape budget 0 disables phase 2, forcing the spanning-tree sort the
  // moment the greedy stalls; the result must still be correct.
  const Device line = devices::linear(3);
  Placement current = Placement::identity(3, 3);
  current.apply_swap(0, 1);
  current.apply_swap(1, 2);
  current.apply_swap(0, 1);
  const Placement target = Placement::identity(3, 3);
  const TokenSwapPlan plan =
      plan_token_swaps(current, target, line, nullptr, /*escape_budget=*/0);
  EXPECT_GE(plan.fallback_swaps, 1u);
  expect_program_wires_home(apply_plan(plan, current, line), target);
}

TEST(TokenSwap, IdenticalPlacementsNeedNoSwaps) {
  const Device qx4 = devices::ibm_qx4();
  const Placement identity = Placement::identity(4, 5);
  const TokenSwapPlan plan =
      plan_token_swaps(identity, identity, qx4, nullptr);
  EXPECT_TRUE(plan.rounds.empty());
  EXPECT_EQ(plan.total_swaps(), 0u);
}

TEST(TokenSwap, FreeWiresAreDontCares) {
  // One program wire out of place on a 3-line; only its path matters, the
  // free wires may land anywhere.
  const Device line = devices::linear(3);
  Placement current = Placement::identity(1, 3);
  current.apply_swap(0, 1);
  current.apply_swap(1, 2);  // program wire 0 now at phys 2
  const Placement target = Placement::identity(1, 3);
  const TokenSwapPlan plan = plan_token_swaps(current, target, line, nullptr);
  EXPECT_EQ(plan.total_swaps(), 2u);  // straight walk home, nothing extra
  expect_program_wires_home(apply_plan(plan, current, line), target);
}

TEST(TokenSwap, RejectsMismatchedPlacements) {
  const Device qx4 = devices::ibm_qx4();
  EXPECT_THROW((void)plan_token_swaps(Placement::identity(3, 5),
                                      Placement::identity(3, 7), qx4,
                                      nullptr),
               MappingError);
}

TEST(RoutingEmitter, RefusesNonAdjacentTwoQubitGate) {
  const Device line = devices::linear(3);
  RoutingEmitter emitter(line, Placement::identity(3, 3), "t");
  EXPECT_THROW(emitter.emit_program_gate(make_gate(GateKind::CX, {0, 2})),
               MappingError);
}

TEST(RoutingEmitter, RefusesNonAdjacentSwap) {
  const Device line = devices::linear(3);
  RoutingEmitter emitter(line, Placement::identity(3, 3), "t");
  EXPECT_THROW(emitter.emit_swap(0, 2), MappingError);
}

TEST(RespectsCoupling, DetectsBadOrientation) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(5);
  c.cx(0, 1);  // reversed orientation
  EXPECT_FALSE(respects_coupling(c, qx4));
  Circuit ok(5);
  ok.cx(1, 0);
  EXPECT_TRUE(respects_coupling(ok, qx4));
}

}  // namespace
}  // namespace qmap
