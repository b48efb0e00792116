// Exact router — minimal SWAP/direction-fix mapping in the spirit of
// Wille, Burgholzer, Zulehner [57] (used for Fig. 3(d)).
//
// Runs Dijkstra over the state space
//     (next two-qubit gate to execute, placement of program qubits)
// with SWAP transitions weighted `cost_per_swap` and gate executions
// weighted `cost_per_direction_fix` when the CX orientation must be
// inverted. With the default weights this minimizes the number of SWAPs
// and, among SWAP-minimal solutions, the number of inverted CNOTs — the
// "minimal number of SWAP and H operations" objective of [57].
//
// Each state is packed into one integer key: the gate index as the top
// digit, then placement[0..n-1] as fixed-width digits of ceil(log2 m)
// bits (m physical qubits). Numeric key order equals the lexicographic
// (gate, placement) order, so the heap's pops, tie-breaks and parent
// choices are fixed by the state alone. Keys fit 64 bits up to 11 program
// qubits on devices of up to 32 qubits; wider states use a 128-bit key,
// and states wider than that are rejected with MappingError. Each
// state's distance, parent key and step (SWAP edge index or "execute")
// live in one flat open-addressing table; a popped state is decoded once
// and each SWAP successor is built in O(1) from the physical->program
// inverse.
//
// The state space is (#physical)! / (#free)! placements per gate, so this
// is intentionally limited to small devices (Sec. IV: exact approaches
// "are not scalable"); the scalability wall is itself one of the paper's
// talking points and is measured in bench_exact_scalability. The packed
// table lowers the constant, not the exponent.
//
// Optimality caveat (shared with [57]): the result is minimal with respect
// to the circuit's *given total gate order*. DAG-based heuristic routers
// may reorder independent gates and can therefore occasionally use fewer
// SWAPs on circuits with much commuting freedom; on a fixed gate sequence
// this router lower-bounds every SWAP-inserting strategy.
#pragma once

#include "route/router.hpp"

namespace qmap {

class ExactRouter final : public Router {
 public:
  struct Options {
    long cost_per_swap = 1000;        // primary objective
    long cost_per_direction_fix = 1;  // tie-breaker (4 H gates per fix)
    /// Dijkstra state budget (distinct states stored); throws MappingError
    /// when exceeded.
    std::size_t max_states = 4'000'000;
  };

  ExactRouter() = default;
  explicit ExactRouter(const Options& options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "exact"; }
  [[nodiscard]] RoutingResult route(const Circuit& circuit,
                                    const Device& device,
                                    const Placement& initial) override;

 private:
  Options options_;
};

}  // namespace qmap
