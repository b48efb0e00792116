#include "route/exact.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <queue>

#include "common/error.hpp"

namespace qmap {
namespace {

// What a search step did: the index of the SWAPped coupling edge, or
// kExecute for running the pending two-qubit gate.
constexpr std::int32_t kExecute = -1;

using WideKey = unsigned __int128;

// Open-addressing map from packed state key to its Dijkstra record, with
// linear probing over a power-of-two slot array kept at most half full.
// Real distances are >= 0, so a negative dist marks an empty slot and no
// key value is reserved.
template <typename Key>
class StateTable {
 public:
  struct Entry {
    Key key{};
    Key parent{};
    long dist = -1;
    std::int32_t action = kExecute;
  };

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The record of `key`, inserted with an unreachable dist when absent.
  /// Invalidates references returned earlier.
  Entry& operator[](Key key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Entry& slot = probe(slots_, key);
    if (slot.dist < 0) {
      slot.key = key;
      slot.dist = std::numeric_limits<long>::max();
      ++size_;
    }
    return slot;
  }

  /// The record of a key that is known to be stored.
  [[nodiscard]] const Entry& at(Key key) { return probe(slots_, key); }

 private:
  static std::size_t hash(Key key) noexcept {
    auto h = static_cast<std::uint64_t>(key);
    if constexpr (sizeof(Key) > sizeof(std::uint64_t)) {
      h ^= static_cast<std::uint64_t>(key >> 64) * 0x9E3779B97F4A7C15ULL;
    }
    h ^= h >> 33;  // murmur3 finalizer
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }

  static Entry& probe(std::vector<Entry>& slots, Key key) {
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      if (slots[i].dist < 0 || slots[i].key == key) return slots[i];
    }
  }

  void grow() {
    std::vector<Entry> bigger(std::max<std::size_t>(1024, 2 * slots_.size()));
    for (const Entry& entry : slots_) {
      if (entry.dist >= 0) probe(bigger, entry.key) = entry;
    }
    slots_ = std::move(bigger);
  }

  std::vector<Entry> slots_;
  std::size_t size_ = 0;
};

// Dijkstra over (next two-qubit gate, placement) states, each packed into
// one Key: the gate index as the top digit, then placement[0..n-1] as
// fixed-width digits of `bits` bits, placement[0] most significant.
// Numeric key order is then the lexicographic (gate, placement) order,
// which fixes the pop order, the tie-breaks and the parent choices.
// Returns the step sequence from the initial state to the goal.
template <typename Key, typename Poll>
std::vector<std::int32_t> search(const Circuit& circuit,
                                 const std::vector<int>& two_qubit_nodes,
                                 const CouplingGraph& coupling,
                                 const std::vector<int>& start, int bits,
                                 const ExactRouter::Options& options,
                                 const Poll& check_cancelled) {
  const int n = static_cast<int>(start.size());
  const int num_targets = static_cast<int>(two_qubit_nodes.size());
  const int gate_shift = n * bits;
  const Key digit_mask = (Key{1} << bits) - 1;
  const auto shift = [&](int program_qubit) {
    return (n - 1 - program_qubit) * bits;
  };

  Key initial_key = 0;
  for (int k = 0; k < n; ++k) {
    initial_key |= static_cast<Key>(start[static_cast<std::size_t>(k)])
                   << shift(k);
  }

  StateTable<Key> table;
  using QueueEntry = std::pair<long, Key>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      open;
  table[initial_key].dist = 0;
  open.emplace(0, initial_key);

  const auto& edges = coupling.edges();
  std::vector<int> placement(static_cast<std::size_t>(n));
  std::vector<int> program_at(static_cast<std::size_t>(coupling.num_qubits()));
  bool found = false;
  Key goal_key = 0;
  std::size_t pops = 0;
  while (!open.empty()) {
    // Poll the cancellation token every few hundred expansions: often
    // enough for ms-scale deadlines, rare enough to stay off the profile.
    if ((++pops & 0xFF) == 0) check_cancelled();
    const auto [d, key] = open.top();
    open.pop();
    if (table.at(key).dist < d) continue;
    const int gate_index = static_cast<int>(key >> gate_shift);
    if (gate_index == num_targets) {
      found = true;
      goal_key = key;
      break;
    }
    if (table.size() > options.max_states) {
      throw MappingError("exact router: state budget exceeded (" +
                         std::to_string(options.max_states) +
                         " states); use a heuristic router");
    }

    std::fill(program_at.begin(), program_at.end(), -1);
    for (int k = 0; k < n; ++k) {
      const int phys = static_cast<int>((key >> shift(k)) & digit_mask);
      placement[static_cast<std::size_t>(k)] = phys;
      program_at[static_cast<std::size_t>(phys)] = k;
    }

    const auto relax = [&](Key next, long cost, std::int32_t action) {
      const long nd = d + cost;
      auto& entry = table[next];
      if (entry.dist <= nd) return;
      entry.dist = nd;
      entry.parent = key;
      entry.action = action;
      open.emplace(nd, next);
    };

    // Execute the pending gate when its operands are adjacent.
    const Gate& gate =
        circuit.gate(static_cast<std::size_t>(
            two_qubit_nodes[static_cast<std::size_t>(gate_index)]));
    const int pa = placement[static_cast<std::size_t>(gate.qubits[0])];
    const int pb = placement[static_cast<std::size_t>(gate.qubits[1])];
    if (coupling.connected(pa, pb)) {
      const bool needs_fix =
          gate.is_directional() && !coupling.orientation_allowed(pa, pb);
      relax(key + (Key{1} << gate_shift),
            needs_fix ? options.cost_per_direction_fix : 0, kExecute);
    }

    // Or apply any SWAP: the program qubits on its endpoints trade digits.
    // A SWAP of two free qubits leads back to this settled state.
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const int a = edges[e].a;
      const int b = edges[e].b;
      const int qa = program_at[static_cast<std::size_t>(a)];
      const int qb = program_at[static_cast<std::size_t>(b)];
      if (qa < 0 && qb < 0) continue;
      Key next = key;
      if (qa >= 0) {
        next = next - (static_cast<Key>(a) << shift(qa)) +
               (static_cast<Key>(b) << shift(qa));
      }
      if (qb >= 0) {
        next = next - (static_cast<Key>(b) << shift(qb)) +
               (static_cast<Key>(a) << shift(qb));
      }
      relax(next, options.cost_per_swap, static_cast<std::int32_t>(e));
    }
  }

  if (!found) throw MappingError("exact router: no solution found");

  std::vector<std::int32_t> actions;
  for (Key cursor = goal_key; cursor != initial_key;) {
    const auto& entry = table.at(cursor);
    actions.push_back(entry.action);
    cursor = entry.parent;
  }
  std::reverse(actions.begin(), actions.end());
  return actions;
}

}  // namespace

RoutingResult ExactRouter::route(const Circuit& circuit, const Device& device,
                                 const Placement& initial) {
  const auto start_time = std::chrono::steady_clock::now();
  check_routable(circuit, device);
  const CouplingGraph& coupling = device.coupling();
  const int n = circuit.num_qubits();

  // The two-qubit gates in program order drive the search.
  std::vector<int> two_qubit_nodes;
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    if (circuit.gate(i).is_two_qubit()) {
      two_qubit_nodes.push_back(static_cast<int>(i));
    }
  }

  std::vector<int> start(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    start[static_cast<std::size_t>(k)] = initial.phys_of_program(k);
  }

  // ceil(log2 m) bits per placement digit; the gate digit takes at least
  // one bit so its shift stays below the key width.
  const int bits = static_cast<int>(std::bit_width(
      static_cast<unsigned>(std::max(coupling.num_qubits(), 1) - 1)));
  const int gate_bits = std::max(
      1, static_cast<int>(std::bit_width(two_qubit_nodes.size())));
  const int key_bits = n * bits + gate_bits;
  const auto poll = [this] { check_cancelled(); };
  std::vector<std::int32_t> actions;
  if (key_bits <= 64) {
    actions = search<std::uint64_t>(circuit, two_qubit_nodes, coupling, start,
                                    bits, options_, poll);
  } else if (key_bits <= 128) {
    actions = search<WideKey>(circuit, two_qubit_nodes, coupling, start, bits,
                              options_, poll);
  } else {
    throw MappingError("exact router: a " + std::to_string(n) +
                       "-qubit placement on " +
                       std::to_string(coupling.num_qubits()) +
                       " physical qubits does not fit the 128-bit state key; "
                       "use a heuristic router");
  }

  // Replay: interleave the original gates with the found SWAPs.
  RoutingEmitter emitter(device, initial,
                         circuit.name() + "@" + device.name());
  std::size_t next_gate = 0;  // index into circuit gates
  std::size_t target_index = 0;
  const auto emit_up_to_next_target = [&] {
    const std::size_t stop =
        target_index < two_qubit_nodes.size()
            ? static_cast<std::size_t>(
                  two_qubit_nodes[target_index])
            : circuit.size();
    while (next_gate < stop) {
      emitter.emit_program_gate(circuit.gate(next_gate));
      ++next_gate;
    }
  };
  for (const std::int32_t action : actions) {
    emit_up_to_next_target();
    if (action != kExecute) {
      const auto& edge = coupling.edges()[static_cast<std::size_t>(action)];
      emitter.emit_swap(edge.a, edge.b);
    } else {
      emitter.emit_program_gate(circuit.gate(next_gate));  // the 2q gate
      ++next_gate;
      ++target_index;
    }
  }
  emit_up_to_next_target();  // trailing single-qubit gates

  const double runtime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_time)
          .count();
  return std::move(emitter).finish(initial, runtime_ms);
}

}  // namespace qmap
