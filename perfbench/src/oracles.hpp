// Output checks of the benchmark. None of them asks the compiler under test
// whether its output is right: legality is checked gate by gate against the
// device's public coupling API, and equivalence by the state-vector and
// Clifford-tableau simulators of sim/.
#pragma once

#include <cstdint>
#include <string>

#include "arch/device.hpp"
#include "ir/circuit.hpp"
#include "pass/context.hpp"

namespace perfbench {

/// Loads configs/<file> below the checkout root.
[[nodiscard]] qmap::Device load_config(const std::string& root,
                                       const std::string& file);

/// Gate-by-gate legality against a device: every operand on the device,
/// every two-qubit gate on a coupled pair in an allowed orientation, every
/// gate kind native unless `require_native` is off (streamed output is
/// never lowered past routing: it keeps SWAPs and direction-fix H gates).
class LegalityCheck {
 public:
  LegalityCheck(const qmap::Device& device, bool require_native)
      : device_(&device), require_native_(require_native) {}

  /// Returns false and keeps the first violation on an illegal gate.
  bool check(const qmap::Gate& gate);
  [[nodiscard]] const std::string& violation() const noexcept {
    return violation_;
  }

 private:
  const qmap::Device* device_;
  bool require_native_;
  std::string violation_;
};

/// Checks a materialized compile: legality of the final circuit, then
/// equivalence of input and output under the reported initial and final
/// placements (Clifford tableau when both are Clifford, else one random
/// state vector). Returns an empty string when both hold.
[[nodiscard]] std::string check_compile(const qmap::CompilationResult& result,
                                        const qmap::Device& device,
                                        std::uint64_t seed);

/// Two-qubit native gates mapping added: final circuit minus the lowered
/// program (both SWAP = 3).
[[nodiscard]] long added_cx(const qmap::CompilationResult& result);

}  // namespace perfbench
