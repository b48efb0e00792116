#include "oracles.hpp"

#include <algorithm>
#include <exception>

#include "arch/config.hpp"
#include "common/rng.hpp"
#include "sim/equivalence.hpp"
#include "sim/stabilizer.hpp"

namespace perfbench {

using qmap::Gate;
using qmap::GateKind;

qmap::Device load_config(const std::string& root, const std::string& file) {
  return qmap::load_device(root + "/configs/" + file);
}

bool LegalityCheck::check(const Gate& gate) {
  if (!violation_.empty()) return false;
  const int width = device_->num_qubits();
  for (const int q : gate.qubits) {
    if (q < 0 || q >= width) {
      violation_ = "operand off the device: " + gate.to_string();
      return false;
    }
  }
  if (gate.kind == GateKind::Barrier || gate.kind == GateKind::Measure) {
    return true;
  }
  if (gate.qubits.size() == 2) {
    const int a = gate.qubits[0];
    const int b = gate.qubits[1];
    const qmap::CouplingGraph& coupling = device_->coupling();
    if (!coupling.connected(a, b)) {
      violation_ = "two-qubit gate on an uncoupled pair: " + gate.to_string();
      return false;
    }
    if (require_native_ && gate.kind != device_->native_two_qubit()) {
      violation_ = "non-native two-qubit gate: " + gate.to_string();
      return false;
    }
    if (gate.is_directional() && !coupling.orientation_allowed(a, b)) {
      violation_ = "two-qubit gate against the coupling direction: " +
                   gate.to_string();
      return false;
    }
    return true;
  }
  if (gate.qubits.size() != 1) {
    violation_ = "gate wider than two qubits on a device: " + gate.to_string();
    return false;
  }
  const std::vector<GateKind>& natives = device_->native_single_qubit();
  if (require_native_ && !natives.empty() &&
      std::find(natives.begin(), natives.end(), gate.kind) == natives.end()) {
    violation_ = "non-native single-qubit gate: " + gate.to_string();
    return false;
  }
  return true;
}

std::string check_compile(const qmap::CompilationResult& result,
                          const qmap::Device& device, std::uint64_t seed) {
  LegalityCheck legality(device, /*require_native=*/true);
  for (const Gate& gate : result.final_circuit) {
    if (!legality.check(gate)) return legality.violation();
  }
  try {
    // Clifford in and out: exact tableau comparison, any width.
    if (qmap::is_clifford_circuit(result.original) &&
        qmap::is_clifford_circuit(result.final_circuit)) {
      if (!qmap::clifford_mapping_equivalent(
              result.original, result.final_circuit,
              result.routing.initial.wire_to_phys(),
              result.routing.final.wire_to_phys())) {
        return "Clifford tableau mismatch between input and mapped circuit";
      }
      return {};
    }
    // Otherwise one random input state: a wrong mapping that survives a
    // Haar-random state is a measure-zero event.
    qmap::Rng rng(seed);
    if (!qmap::mapping_equivalent(result.original, result.final_circuit,
                                  result.routing.initial.wire_to_phys(),
                                  result.routing.final.wire_to_phys(), rng,
                                  /*trials=*/1)) {
      return "state-vector mismatch between input and mapped circuit";
    }
  } catch (const std::exception& e) {
    return std::string("equivalence check failed: ") + e.what();
  }
  return {};
}

namespace {

/// Native two-qubit gates of a circuit, a SWAP counted as 3.
long two_qubit_cost(const qmap::Circuit& circuit) {
  long cost = 0;
  for (const Gate& gate : circuit) {
    if (!gate.is_two_qubit()) continue;
    cost += gate.kind == GateKind::SWAP ? 3 : 1;
  }
  return cost;
}

}  // namespace

long added_cx(const qmap::CompilationResult& result) {
  return two_qubit_cost(result.final_circuit) -
         two_qubit_cost(result.lowered);
}

}  // namespace perfbench
