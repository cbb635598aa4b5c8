// Oracle embedding for general K(d, k) cells (paper SV, future work:
// "investigate the Kautz graph K(d,k) with various d and k values").
//
// The message-level embedding protocol (embedding.hpp) implements the
// paper's K(2,3) schedule literally.  For other (d, k) the paper gives no
// protocol, so this module computes the assignment *offline* (an oracle)
// and charges only the ID-notification messages:
//
//  1. Cells come from the same Delaunay partition of the actuator layer.
//  2. Within a cell, the Hamiltonian cycle of K(d, k) (which exists for
//     every Kautz graph; the embedding precondition of Proposition 3.2)
//     is laid out as a ring inscribed in the cell, so cycle-consecutive
//     labels land on physically adjacent sensors.  Three labels spaced a
//     third of the cycle apart become the corner labels and are pinned to
//     the actuators; every other label takes the unassigned sensor
//     closest to its ring position.
//
// Non-ring Kautz arcs (chords) may exceed radio range; the router's
// 1-relay detour and the maintenance protocol handle them, exactly as
// for stretched arcs under mobility.  Deviation from the paper's K(2,3)
// design: an actuator may hold different KIDs in different cells (the
// paper's same-KID simplification has no k-generic analogue).
#pragma once

#include "refer/topology.hpp"
#include "sim/channel.hpp"
#include "sim/energy.hpp"

namespace refer::core {

struct OracleEmbeddingConfig {
  int d = 2;
  int k = 3;
  /// Sparse deployments: when true, cells may be *partial* -- labels stay
  /// unbound once the sensor pool runs out.  The router skips unbound
  /// successors (one fewer disjoint alternative per gap), so routing
  /// degrades gracefully instead of the embedding failing outright.
  bool allow_partial = false;
};

/// Embeds K(d, k) cells into the world and fills `topology`; returns
/// false when the partition fails or there are not enough sensors for
/// the (d+1)d^{k-1} - 3 sensor labels of every cell.  Charges the
/// assignment notifications (one unicast per assigned sensor, one
/// broadcast per actuator) to the construction bucket.
[[nodiscard]] bool oracle_embed(sim::World& world, sim::Channel& channel,
                                Topology& topology,
                                const OracleEmbeddingConfig& config);

}  // namespace refer::core
