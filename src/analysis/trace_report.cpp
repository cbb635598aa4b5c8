#include "analysis/trace_report.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>

#include "analysis/json_doc.hpp"
#include "kautz/label.hpp"
#include "kautz/regular.hpp"
#include "kautz/routing.hpp"

namespace refer::analysis {

namespace {

/// String member or "" when absent / not a string.
std::string str_or(const JsonNode& obj, std::string_view key) {
  const JsonNode* v = obj.find(key);
  const std::string* s = v ? v->string_or_null() : nullptr;
  return s ? *s : std::string();
}

bool has_number(const JsonNode& obj, std::string_view key) {
  const JsonNode* v = obj.find(key);
  return v && v->kind == JsonNode::Kind::kNumber;
}

bool is_routing_event(const std::string& event) {
  return event == "packet_sent" || event == "hop_forward" ||
         event == "failover" || event == "packet_dropped" ||
         event == "packet_delivered" || event == "qos_deadline_miss";
}

/// Application-layer events (src/app): carried in the same stream but
/// loop-scoped, not packet-scoped -- no mandatory routing keys.
bool is_app_event(const std::string& event) {
  return event == "app_register" || event == "app_keepalive_miss" ||
         event == "app_actuate" || event == "app_loop_complete" ||
         event == "app_loop_miss" || event == "app_actuator_down" ||
         event == "app_actuator_up";
}

bool is_known_event(const std::string& event) {
  return is_routing_event(event) || is_app_event(event) ||
         event == "trace_header" || event == "unicast_queued" ||
         event == "unicast_delivered" || event == "unicast_failed" ||
         event == "broadcast" || event == "node_down" || event == "node_up";
}

/// Folds one parsed record into the report; returns false on a schema
/// violation (missing / mistyped keys for the event type).
bool ingest(TraceReport& report, const JsonNode& obj) {
  const std::string event = str_or(obj, "event");
  if (event.empty() || !has_number(obj, "t")) return false;
  ++report.events_by_type[event];
  if (!is_known_event(event)) return false;
  if (event == "trace_header") {
    // Run metadata written once at build time: the overlay's Kautz
    // degree d, authoritative for the Theorem 3.8 audit.
    const int d = static_cast<int>(obj.member_number("degree", -1));
    if (d < 2) return false;
    report.header_degree = d;
    // Routing policy: the writer only emits the key when the run used a
    // non-default policy, so absence means greedy.
    report.header_policy = str_or(obj, "policy");
    return true;
  }
  if (event == "app_loop_miss") {
    // A missed control loop is the app tier's drop: it joins the drop
    // breakdown so one row answers "where did deliveries go?" across
    // both tiers.
    ++report.drops_by_reason["app_loop_miss"];
    return true;
  }
  if (!is_routing_event(event)) return true;

  // Routing events are packet-scoped: the id is mandatory -- except for
  // QoS misses from baseline systems, which do not track packet ids and
  // can only be counted globally.
  if (!has_number(obj, "packet")) {
    if (event == "qos_deadline_miss") {
      ++report.qos_misses;
      return true;
    }
    return false;
  }
  const auto id = static_cast<long long>(obj.member_number("packet", -1));
  const double t = obj.member_number("t", 0);
  PacketTrace& pkt = report.packets[id];
  pkt.id = id;
  pkt.end_t = t;

  if (event == "packet_sent") {
    ++report.packets_sent;
    pkt.sent_t = t;
  } else if (event == "hop_forward") {
    HopRecord hop;
    hop.t = t;
    hop.from = static_cast<long long>(obj.member_number("from", -1));
    hop.to = static_cast<long long>(obj.member_number("to", -1));
    hop.hop_index = static_cast<int>(obj.member_number("hop", -1));
    hop.at = str_or(obj, "at");
    hop.dst = str_or(obj, "dst");
    hop.next = str_or(obj, "next");
    pkt.hops.push_back(std::move(hop));
  } else if (event == "failover") {
    if (!has_number(obj, "alt")) return false;
    ++report.failovers;
    FailoverRecord f;
    f.t = t;
    f.node = static_cast<long long>(obj.member_number("from", -1));
    f.alt_index = static_cast<int>(obj.member_number("alt", -1));
    f.nominal_len = static_cast<int>(obj.member_number("nominal_len", -1));
    f.at = str_or(obj, "at");
    f.dst = str_or(obj, "dst");
    f.next = str_or(obj, "next");
    pkt.failovers.push_back(std::move(f));
  } else if (event == "packet_dropped") {
    const std::string reason = str_or(obj, "reason");
    if (reason.empty()) return false;
    ++report.packets_dropped;
    ++report.drops_by_reason[reason];
    pkt.dropped = true;
    pkt.drop_reason = reason;
  } else if (event == "packet_delivered") {
    ++report.packets_delivered;
    pkt.delivered = true;
  } else {  // qos_deadline_miss
    ++report.qos_misses;
    pkt.qos_miss = true;
  }
  return true;
}

int max_label_digit(const std::string& label) {
  int d = -1;
  for (const char c : label) {
    if (c >= '0' && c <= '9') d = std::max(d, c - '0');
  }
  return d;
}

/// Fallback for traces without a trace_header record: the labels use
/// the alphabet {0..d}, so the largest digit seen anywhere *is* d --
/// but only if the run's traffic exercised it, which a short or
/// low-traffic trace may not.  Prefer the header degree or --degree.
int infer_degree(const TraceReport& report) {
  int d = -1;
  for (const auto& [id, pkt] : report.packets) {
    for (const HopRecord& hop : pkt.hops) {
      d = std::max({d, max_label_digit(hop.at), max_label_digit(hop.dst),
                    max_label_digit(hop.next)});
    }
    for (const FailoverRecord& f : pkt.failovers) {
      d = std::max({d, max_label_digit(f.at), max_label_digit(f.dst),
                    max_label_digit(f.next)});
    }
  }
  return d;
}

/// Audit 2: hop chains of delivered packets must be connected, and every
/// labelled hop must be a genuine Kautz arc.
void audit_chains(TraceReport& report) {
  for (auto& [id, pkt] : report.packets) {
    for (std::size_t i = 0; i < pkt.hops.size(); ++i) {
      const HopRecord& hop = pkt.hops[i];
      if (pkt.delivered && i + 1 < pkt.hops.size() &&
          pkt.hops[i + 1].from != hop.to) {
        ++report.chain_breaks;
      }
      if (hop.at.empty() || hop.next.empty()) continue;
      const auto at = kautz::Label::parse(hop.at);
      const auto next = kautz::Label::parse(hop.next);
      if (!at || !next || next->empty() ||
          at->length() != next->length() ||
          *next != at->shift_append(next->last()) ||
          next->last() == at->last()) {
        ++report.arc_violations;
      }
    }
  }
}

/// Audit 3: every Theorem 3.8 fail-over re-derived offline.  The chosen
/// successor must appear in kautz::disjoint_routes(d, at, dst) with the
/// recorded nominal length, and the packet's observed continuation to
/// dst (when it completed without further fail-overs) must take at most
/// nominal_len arcs -- greedy can shortcut, never overshoot.
void audit_failovers(TraceReport& report) {
  if (report.degree < 2) return;  // no labelled fail-overs to audit
  for (auto& [id, pkt] : report.packets) {
    for (std::size_t fi = 0; fi < pkt.failovers.size(); ++fi) {
      const FailoverRecord& f = pkt.failovers[fi];
      if (f.nominal_len < 0 || f.at.empty() || f.dst.empty() ||
          f.next.empty()) {
        continue;  // CAN-level or route-generation fail-over
      }
      ++report.failovers_checked;
      const auto at = kautz::Label::parse(f.at);
      const auto dst = kautz::Label::parse(f.dst);
      const auto next = kautz::Label::parse(f.next);
      if (!at || !dst || !next || *at == *dst) {
        ++report.failover_mismatches;
        continue;
      }
      bool found = false;
      for (const kautz::Route& route :
           kautz::disjoint_routes(report.degree, *at, *dst)) {
        if (route.successor == *next) {
          found = route.nominal_length == f.nominal_len;
          break;
        }
      }
      if (!found) {
        ++report.failover_mismatches;
        continue;
      }
      // The length bound below holds for greedy continuations only:
      // greedy can shortcut a nominal route, never overshoot.  Under the
      // regular policy the packet restarts its concatenation walk from
      // wherever the detour lands -- up to k + 1 hops regardless of the
      // alternate's nominal length -- so the bound does not apply;
      // audit_regular checks that continuation hop by hop instead.
      if (report.header_policy == "regular") continue;
      // Observed continuation: hops after this fail-over routing towards
      // the same dst, until the target is reached or the segment is cut
      // short (another fail-over, a re-target, a drop).
      const double next_failover_t = fi + 1 < pkt.failovers.size()
                                         ? pkt.failovers[fi + 1].t
                                         : std::numeric_limits<double>::max();
      int observed = 0;
      bool completed = false;
      for (const HopRecord& hop : pkt.hops) {
        if (hop.t < f.t || hop.at.empty()) continue;
        if (hop.t >= next_failover_t || hop.dst != f.dst) break;
        ++observed;
        if (hop.next == f.dst) {
          completed = true;
          break;
        }
      }
      if (completed && observed > f.nominal_len) {
        ++report.path_length_violations;
      }
    }
  }
}

/// Audit 4: regular-policy traces only (the trace_header carries
/// policy="regular").  Re-derives every packet's Faber-Streib
/// concatenation walk offline (kautz::regular_route is a pure function
/// of the labels) and replays it hop by hop.  Every hop not explained
/// by a fail-over must either *continue* the walk in progress (same
/// node the walk expected, same target, program not exhausted) or be
/// the *first* hop of a fresh walk derived at this node -- the router
/// restarts the walk at a fail-over detour, a corner re-target, the
/// descent into the next cell, or an exhausted program, and a re-target
/// can happen silently at the detour node itself (all alternates
/// exhausted), so the restart point is not recoverable from the trace
/// alone.  Fail-over-selected hops are exempt (they are the Theorem 3.8
/// alternates audit_failovers already covers) but still sync the walk
/// state; a conflict-class fail-over additionally dictates the next hop
/// (Proposition 3.7), cross-checked against the re-derived forced
/// second hop.
void audit_regular(TraceReport& report) {
  if (report.degree < 2 || report.header_policy != "regular") return;
  for (auto& [id, pkt] : report.packets) {
    kautz::RegularRoute walk;
    int pos = 0;
    std::optional<kautz::Label> expected_at;  // where the walk stands
    std::optional<kautz::Label> walk_dst;     // target the walk serves
    // Armed after a conflict-class fail-over: the Proposition 3.7 hop
    // expected at node `forced_at` while still routing to `forced_dst`.
    std::optional<kautz::Label> forced_next, forced_at, forced_dst;
    std::size_t fi = 0;
    for (const HopRecord& hop : pkt.hops) {
      // Fail-over records since the previous hop mean this hop's
      // successor came from the Theorem 3.8 alternates (or a
      // route-generation flood), not the walk.
      const FailoverRecord* detour = nullptr;
      while (fi < pkt.failovers.size() && pkt.failovers[fi].t <= hop.t) {
        detour = &pkt.failovers[fi];
        ++fi;
      }
      const auto at = kautz::Label::parse(hop.at);
      const auto dst = kautz::Label::parse(hop.dst);
      const auto next = kautz::Label::parse(hop.next);
      if (!at || !dst || !next || *at == *dst) {
        expected_at.reset();
        forced_next.reset();
        continue;  // audit_chains flags malformed labels
      }
      if (detour) {
        expected_at.reset();
        forced_next.reset();
        // Conflict-class detour? Re-derive the Theorem 3.8 routes at the
        // switch point and arm the forced-second-hop expectation.
        if (detour->nominal_len >= 0 && !detour->at.empty() &&
            !detour->dst.empty() && !detour->next.empty()) {
          const auto f_at = kautz::Label::parse(detour->at);
          const auto f_dst = kautz::Label::parse(detour->dst);
          const auto f_next = kautz::Label::parse(detour->next);
          if (f_at && f_dst && f_next && *f_at != *f_dst) {
            for (const kautz::Route& route :
                 kautz::disjoint_routes(report.degree, *f_at, *f_dst)) {
              if (route.successor != *f_next) continue;
              if (route.forced_second_hop) {
                forced_next = *route.forced_second_hop;
                forced_at = *f_next;
                forced_dst = *f_dst;
              }
              break;
            }
          }
        }
      } else if (forced_next) {
        // The forced hop fires only when the packet is still standing
        // where the conflict detour left it, routing to the same target;
        // a delivery or re-target in between voids the directive.
        const bool applies = *forced_at == *at && *forced_dst == *dst;
        if (applies) {
          ++report.regular_checked;
          if (*next != *forced_next) ++report.regular_mismatches;
          forced_next.reset();
          // The router re-derives after a forced hop (expected-label
          // mismatch), so the walk restarts at the landing node.
          expected_at.reset();
          continue;
        }
        forced_next.reset();
      }

      // Continuation: the walk in progress expected to stand exactly
      // here with this target and has program left.
      bool synced = false;
      if (expected_at && *expected_at == *at && walk_dst &&
          *walk_dst == *dst && pos < walk.length) {
        const kautz::Label cont =
            at->shift_append(walk.digits[static_cast<std::size_t>(pos)]);
        if (*next == cont) {
          ++pos;
          expected_at = cont;
          synced = true;
        }
      }
      // Restart: first hop of a fresh walk derived at this node.
      if (!synced) {
        const kautz::RegularRoute fresh =
            kautz::regular_route(report.degree, *at, *dst);
        if (fresh.length > 0 && *next == at->shift_append(fresh.digits[0])) {
          walk = fresh;
          pos = 1;
          expected_at = *next;
          walk_dst = *dst;
          synced = true;
        }
      }
      if (detour) continue;  // exempt: sync only, no verdict
      ++report.regular_checked;
      if (!synced) {
        ++report.regular_mismatches;
        expected_at.reset();  // resync from wherever the packet really is
      }
    }
  }
}

}  // namespace

TraceReport analyze_trace(std::istream& in, const TraceReportOptions& opts) {
  TraceReport report;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++report.lines;
    const auto obj = parse_json_doc(line);
    if (!obj || !obj->is_flat_object()) {
      ++report.parse_errors;
      continue;
    }
    if (!ingest(report, *obj)) ++report.schema_errors;
  }
  report.degree = opts.degree > 0
                      ? opts.degree
                      : (report.header_degree > 0 ? report.header_degree
                                                  : infer_degree(report));
  audit_chains(report);
  audit_failovers(report);
  audit_regular(report);
  return report;
}

TraceReport analyze_trace_file(const std::string& path,
                               const TraceReportOptions& opts) {
  std::ifstream in(path);
  if (!in) {
    TraceReport report;
    report.parse_errors = 1;
    return report;
  }
  return analyze_trace(in, opts);
}

void print_report(const TraceReport& report, const TraceReportOptions& opts,
                  std::FILE* out) {
  std::fprintf(out,
               "%llu lines (%llu parse errors, %llu schema errors)\n",
               static_cast<unsigned long long>(report.lines),
               static_cast<unsigned long long>(report.parse_errors),
               static_cast<unsigned long long>(report.schema_errors));
  std::fprintf(out, "events:");
  for (const auto& [event, count] : report.events_by_type) {
    std::fprintf(out, " %s=%llu", event.c_str(),
                 static_cast<unsigned long long>(count));
  }
  std::fprintf(out, "\n");
  std::fprintf(out,
               "packets: sent=%llu delivered=%llu dropped=%llu "
               "qos_misses=%llu\n",
               static_cast<unsigned long long>(report.packets_sent),
               static_cast<unsigned long long>(report.packets_delivered),
               static_cast<unsigned long long>(report.packets_dropped),
               static_cast<unsigned long long>(report.qos_misses));
  if (!report.drops_by_reason.empty()) {
    std::fprintf(out, "drop reasons:");
    for (const auto& [reason, count] : report.drops_by_reason) {
      std::fprintf(out, " %s=%llu", reason.c_str(),
                   static_cast<unsigned long long>(count));
    }
    std::fprintf(out, "\n");
  }
  std::fprintf(out,
               "theorem 3.8 audit (d=%d): %llu fail-overs, %llu checked, "
               "%llu route mismatches, %llu path-length violations\n",
               report.degree,
               static_cast<unsigned long long>(report.failovers),
               static_cast<unsigned long long>(report.failovers_checked),
               static_cast<unsigned long long>(report.failover_mismatches),
               static_cast<unsigned long long>(report.path_length_violations));
  std::fprintf(out, "hop chains: %llu breaks, %llu invalid Kautz arcs\n",
               static_cast<unsigned long long>(report.chain_breaks),
               static_cast<unsigned long long>(report.arc_violations));
  if (report.header_policy == "regular") {
    std::fprintf(out,
                 "regular-route audit: %llu hops checked, "
                 "%llu walk mismatches\n",
                 static_cast<unsigned long long>(report.regular_checked),
                 static_cast<unsigned long long>(report.regular_mismatches));
  }

  // Show the first few packets that actually needed fail-overs: the
  // per-hop chain with the switch points inline.
  std::size_t shown = 0;
  for (const auto& [id, pkt] : report.packets) {
    if (shown >= opts.max_chains) break;
    if (pkt.failovers.empty() || pkt.hops.empty()) continue;
    ++shown;
    std::fprintf(out, "packet %lld (%s, %zu fail-overs):", pkt.id,
                 pkt.delivered
                     ? "delivered"
                     : (pkt.dropped ? pkt.drop_reason.c_str() : "in flight"),
                 pkt.failovers.size());
    std::size_t next_fail = 0;
    for (const HopRecord& hop : pkt.hops) {
      while (next_fail < pkt.failovers.size() &&
             pkt.failovers[next_fail].t <= hop.t) {
        const FailoverRecord& f = pkt.failovers[next_fail++];
        if (f.nominal_len >= 0) {
          std::fprintf(out, " !alt%d(len<=%d)", f.alt_index, f.nominal_len);
        } else {
          std::fprintf(out, " !alt%d", f.alt_index);
        }
      }
      if (!hop.at.empty() && !hop.next.empty()) {
        std::fprintf(out, " %s>%s", hop.at.c_str(), hop.next.c_str());
      } else {
        std::fprintf(out, " n%lld>n%lld", hop.from, hop.to);
      }
    }
    std::fprintf(out, "\n");
  }
}

}  // namespace refer::analysis
