// Structured event tracing (the ns-2 trace-file equivalent).
//
// A Tracer receives one TraceRecord per event; sinks decide what to do
// with them (count, filter, write JSONL).  Tracing is off unless a sink
// is attached, and costs one branch per event when off.
//
// Two event families share the stream:
//   - frame-level events emitted by the Channel / World (kUnicast*,
//     kBroadcast, kNode*), and
//   - routing-level events emitted by protocol routers (kPacket*,
//     kHopForward, kFailover, kQosDeadlineMiss), which carry a
//     router-assigned packet id plus overlay-label context so an offline
//     analyzer (tools/trace_report) can reconstruct per-packet hop
//     chains and audit every Theorem-3.8 fail-over against the Kautz
//     disjoint-route table.  Routers that own an overlay also emit one
//     kTraceHeader record at build time carrying the Kautz degree d, so
//     the analyzer need not infer it from label digits.
//
//   sim::Tracer tracer;
//   sim::JsonlTraceWriter writer("run.jsonl");
//   tracer.set_sink(std::ref(writer));
//   channel.set_tracer(&tracer);
//
// A Tracer (and any sink) is SINGLE-RUN-LOCAL: it belongs to exactly one
// simulation run and is only ever used from the thread executing that
// run.  Under the parallel executor every (system, x, seed) job builds
// its own Deployment and therefore its own Tracer; sharing one tracer
// across jobs would interleave unrelated runs and race on the sink.
// Debug builds assert that all emits come from one thread.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "sim/energy.hpp"
#include "sim/world.hpp"

namespace refer::sim {

enum class TraceEvent {
  kUnicastQueued,     ///< frame accepted for transmission
  kUnicastDelivered,  ///< frame received (after airtime)
  kUnicastFailed,     ///< receiver unreachable / frame lost
  kBroadcast,         ///< broadcast frame put on the air
  kNodeDown,          ///< node became faulty
  kNodeUp,            ///< node recovered
  // Routing-level events (emitted by routers, not the channel).
  kPacketSent,       ///< a packet entered the router
  kHopForward,       ///< one packet-carrying hop succeeded
  kFailover,         ///< relay switched to an alternate successor
  kPacketDropped,    ///< packet terminated undelivered (see DropReason)
  kPacketDelivered,  ///< packet reached its destination
  kQosDeadlineMiss,  ///< delivered, but after the QoS deadline
  kTraceHeader,      ///< run metadata (Kautz degree d), once per trace
  // Application-layer events (emitted by app::ControlLoopEngine; the
  // `packet` field carries the control-loop id where one applies).
  kAppRegister,       ///< sensor (from) registered with actuator (to)
  kAppKeepaliveMiss,  ///< actuator keepalive lapsed (hop = miss count)
  kAppActuate,        ///< actuator (from) issued a command to sensor (to)
  kAppLoopComplete,   ///< command delivered back: the loop closed
  kAppLoopMiss,       ///< loop deadline passed without completion
  kAppActuatorDown,   ///< keepalive misses crossed the limit
  kAppActuatorUp,     ///< repaired actuator re-registered
  /// Sentinel: number of event kinds.  Always keep last; counting sinks
  /// size their arrays from it so adding an event cannot read out of
  /// bounds.
  kTraceEventCount,
};

/// Why a router dropped a packet (kPacketDropped records).
enum class DropReason {
  kNone,                 ///< not a drop record
  kLinkFailed,           ///< a physical transfer failed with no recourse
  kNoActuator,           ///< no alive actuator to route towards
  kOverlayEntryFailed,   ///< greedy walk never reached an overlay member
  kTtlExpired,           ///< hop budget exhausted
  kNoRoute,              ///< no routable target (corner / CAN / bad dst)
  kAllSuccessorsFailed,  ///< every Theorem-3.8 alternative failed
  kFloodFailed,          ///< route-generation flood found no path
  kDropReasonCount,      ///< sentinel; keep last
};

[[nodiscard]] const char* to_string(TraceEvent event) noexcept;
[[nodiscard]] const char* to_string(DropReason reason) noexcept;

struct TraceRecord {
  double t = 0;
  TraceEvent event = TraceEvent::kUnicastQueued;
  NodeId from = -1;
  NodeId to = -1;  ///< -1 for broadcasts / node / packet-scoped events
  std::size_t bytes = 0;
  EnergyBucket bucket = EnergyBucket::kData;
  // Routing-level context (packet-scoped events only; defaults mean
  // "absent" and are omitted from JSONL output).
  std::int64_t packet = -1;  ///< router-assigned packet id
  DropReason reason = DropReason::kNone;
  int hop_index = -1;    ///< overlay (Kautz) hops completed so far
  int alt_index = -1;    ///< failover: index into the alternative list
  int nominal_len = -1;  ///< failover: Theorem 3.8 nominal path length
  int degree = -1;       ///< trace_header: K(d, k) degree of the overlay
  std::string policy;    ///< trace_header: routing policy name (or empty)
  std::string at_label;    ///< current node's overlay label
  std::string dst_label;   ///< intra-cell routing target label
  std::string next_label;  ///< chosen successor's overlay label
};

/// A radio-frame or node-liveness record: no routing context.  (A brace
/// initialiser that leaves out the label members trips
/// -Wmissing-field-initializers on GCC 12, designated or not.)
[[nodiscard]] inline TraceRecord frame_record(double t, TraceEvent event,
                                              NodeId from, NodeId to,
                                              std::size_t bytes,
                                              EnergyBucket bucket) {
  TraceRecord r;
  r.t = t;
  r.event = event;
  r.from = from;
  r.to = to;
  r.bytes = bytes;
  r.bucket = bucket;
  return r;
}

/// Dispatch point; protocols and the channel emit through this.
class Tracer {
 public:
  using Sink = std::function<void(const TraceRecord&)>;

  void set_sink(Sink sink) {
    sink_ = std::move(sink);
#ifndef NDEBUG
    owner_ = std::thread::id{};  // rebinds to the next emitting thread
#endif
  }
  void clear_sink() { sink_ = nullptr; }

  /// Attaches a read-only tap invoked *before* the sink on every record.
  /// The invariant engine (src/verify) listens here so event-granularity
  /// checks run alongside whatever the run already writes to JSONL; a tap
  /// alone also enables emission (a checker needs no trace file).
  void set_tap(Sink tap) { tap_ = std::move(tap); }
  void clear_tap() { tap_ = nullptr; }

  [[nodiscard]] bool enabled() const noexcept {
    return static_cast<bool>(sink_) || static_cast<bool>(tap_);
  }

  void emit(const TraceRecord& record) {
    if (!sink_ && !tap_) return;
#ifndef NDEBUG
    if (owner_ == std::thread::id{}) owner_ = std::this_thread::get_id();
    assert(owner_ == std::this_thread::get_id() &&
           "Tracer is single-run-local: each parallel job must own its "
           "tracer (see Deployment in harness/experiment.cpp)");
#endif
    if (tap_) tap_(record);
    if (sink_) sink_(record);
  }

 private:
  Sink sink_;
  Sink tap_;
#ifndef NDEBUG
  std::thread::id owner_;
#endif
};

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
[[nodiscard]] std::string json_escape(std::string_view s);
/// Same escaping, appended to `out` without allocating a temporary.
void json_escape_append(std::string& out, std::string_view s);

/// Writes records as JSON lines: one object per event, machine-parsable.
/// Frame-level keys (t/event/from/to/bytes/bucket) are always present;
/// routing-level keys (packet/reason/hop/alt/nominal_len/at/dst/next)
/// appear only on records that set them.
///
/// Records are rendered into a reusable batch buffer and handed to the
/// OS in ~64 KiB fwrite chunks instead of one stream write per record;
/// the harness flushes once at run end (and whenever a mid-run reader --
/// the invariant engine's trace audit -- needs the stream complete).
/// The bytes on disk are identical to the per-record path.
class JsonlTraceWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit JsonlTraceWriter(const std::string& path);
  ~JsonlTraceWriter();
  JsonlTraceWriter(const JsonlTraceWriter&) = delete;
  JsonlTraceWriter& operator=(const JsonlTraceWriter&) = delete;

  void operator()(const TraceRecord& record);

  /// Pushes buffered records to disk so another reader (the invariant
  /// engine's end-of-run trace audit) sees the complete stream while
  /// this writer is still alive.
  void flush() noexcept;

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return written_;
  }

 private:
  /// Batch bytes held before an fwrite; also the initial reservation.
  static constexpr std::size_t kBatchBytes = 64 * 1024;

  std::FILE* file_;
  std::string buffer_;  ///< rendered-but-unwritten records
  std::uint64_t written_ = 0;
};

/// Sink that only counts events per type (tests, cheap monitoring).
class CountingTraceSink {
 public:
  void operator()(const TraceRecord& record) {
    ++counts_[static_cast<std::size_t>(record.event)];
  }
  [[nodiscard]] std::uint64_t count(TraceEvent event) const {
    return counts_[static_cast<std::size_t>(event)];
  }

 private:
  std::uint64_t counts_[static_cast<std::size_t>(
      TraceEvent::kTraceEventCount)] = {};
};

}  // namespace refer::sim
