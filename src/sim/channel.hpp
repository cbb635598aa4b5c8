// Radio channel + MAC model.
//
// Unit-disk propagation with CSMA-style local medium sharing: a frame
// occupies the air around its sender, so every node in the sender's
// range defers (its own next transmission starts later).  This is what
// makes broadcast storms expensive in *time* as well as energy -- a
// repair flood saturates its area and queues the data packets behind
// it, the effect the paper's throughput/delay figures hinge on.  Each
// frame costs MAC overhead + payload/bandwidth + random contention
// jitter, and unicast delivery requires the receiver to be alive and
// within the sender's range *at delivery time* -- mobility therefore
// breaks links, and the sender learns about it through the missing MAC
// ACK (done(false) after ack_timeout), which triggers fault-tolerant
// fail-over in the protocols.
//
// Energy: every frame transmission charges the sender TX energy; every
// successful reception charges the receiver RX energy (broadcast charges
// every in-range receiver), per the paper's per-packet model.
//
// Observability (the simulator's Instruments): frame events go to the
// tracer, MAC queue waits to the "channel.queue_wait_us" histogram and
// the flight recorder, and the CSMA neighbourhood defer charges
// Phase::kMediumScan.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats_registry.hpp"
#include "sim/energy.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"

namespace refer::sim {

/// Medium-access model (ablation knob; kCsma is the evaluated default).
enum class MacMode {
  kCsma,     ///< frames defer the sender's whole neighbourhood (802.11-ish)
  kNullMac,  ///< per-sender serialisation only, infinite spatial reuse
};

struct ChannelConfig {
  double bandwidth_bps = 2e6;        ///< IEEE 802.11 DSSS basic rate
  double mac_overhead_s = 0.6e-3;    ///< DIFS + preamble + ACK exchange
  double max_jitter_s = 1.2e-3;      ///< contention backoff jitter
  double ack_timeout_s = 5e-3;       ///< extra delay before reporting loss
  double loss_probability = 0.0;     ///< random per-frame loss (fault inj.)
  MacMode mac = MacMode::kCsma;
};

/// Channel statistics for tests and the harness.
struct ChannelStats {
  std::uint64_t unicasts_sent = 0;
  std::uint64_t unicasts_delivered = 0;
  std::uint64_t unicasts_failed = 0;
  std::uint64_t broadcasts_sent = 0;
  std::uint64_t broadcast_receptions = 0;
  double total_airtime_s = 0;  ///< summed frame airtime across all senders
};

/// The shared medium.  All protocol communication goes through here so
/// that delay and energy are accounted uniformly.
class Channel {
 public:
  /// Called when a unicast completes: delivered=true on success, false
  /// when the link was broken (out of range / dead node / random loss).
  using UnicastDone = std::function<void(bool delivered)>;
  /// Called once per node that received a broadcast frame.
  using ReceiveFn = std::function<void(NodeId receiver)>;

  Channel(Simulator& sim, World& world, EnergyTracker& energy, Rng rng,
          ChannelConfig config = {});

  // Scheduled frame deliveries capture `this`; moving or copying would
  // leave them dangling.
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  Channel(Channel&&) = delete;
  Channel& operator=(Channel&&) = delete;

  /// Sends `bytes` from `from` to `to`.  `done` fires at delivery time on
  /// success, or after the ACK timeout on failure.  A dead sender fails
  /// immediately.
  void unicast(NodeId from, NodeId to, std::size_t bytes, EnergyBucket bucket,
               UnicastDone done);

  /// One-hop broadcast to every alive node within range at delivery time.
  /// No ACKs: the sender gets no failure feedback (matches 802.11
  /// broadcast).  `on_receive` fires once per receiver.
  /// `range_override` > 0 transmits at reduced power (power control);
  /// 0 uses the sender's full range.
  void broadcast(NodeId from, std::size_t bytes, EnergyBucket bucket,
                 ReceiveFn on_receive, double range_override = 0);

  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }

  /// Per-frame airtime for a payload (without queueing).
  [[nodiscard]] double frame_time(std::size_t bytes) const noexcept;

  /// Cumulative airtime a node has spent transmitting (seconds); the
  /// congestion observable: a relay near 1 s/s of airtime is saturated.
  [[nodiscard]] double node_airtime_s(NodeId node) const;

  /// The `top` busiest transmitters as (node, airtime) pairs, descending.
  [[nodiscard]] std::vector<std::pair<NodeId, double>> busiest_nodes(
      std::size_t top) const;

 private:
  /// Earliest time `node` can start transmitting (its neighbourhood's
  /// medium must be free); reserves the slot for the node *and* defers
  /// every node in range (CSMA).
  Time reserve_tx_slot(NodeId node, double duration);
  /// Streams the MAC queue wait of a frame requested now and sent at
  /// `start` (µs) into the "channel.queue_wait_us" histogram and the
  /// flight recorder.  Sampling never perturbs simulation state.
  void record_queue_wait(Time start);

  Simulator* sim_;
  World* world_;
  EnergyTracker* energy_;
  Rng rng_;
  ChannelConfig config_;
  ChannelStats stats_;
  std::vector<Time> busy_until_;  ///< grown to world size by reserve_tx_slot
  std::vector<double> airtime_;
  /// "channel.queue_wait_us" of the context's registry, resolved at
  /// construction so the per-frame sample needs no lookup.
  Histogram* queue_wait_us_ = nullptr;
};

}  // namespace refer::sim
