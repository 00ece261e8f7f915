// Per-transaction layer times from one traced run.
//
// The server already records, for every frame it handles,
//
//   transaction            child of the client span named in the frame tag
//   ├─ parse
//   ├─ dispatch > handle   shard routing, lock, engine operation
//   └─ format
//   write                  (TCP reactor) sibling under the client span
//
// TimingTransport marks each client roundtrip with the client span it ran
// under and its interval on the same tracer clock. Joining the two splits
// one roundtrip into intervals:
//
//   queue   roundtrip start -> server parse start (inbound path + wait)
//   parse, dispatch, format, other (transaction time outside the three)
//   write   TCP: the reactor's socket write span, cut off where the
//           roundtrip ended (with client and server on one CPU the
//           client may run on before writev returns). In-process: the
//           hand-back from the server's end to the roundtrip's end, the
//           only way that wire "writes" a response.
//
// Only span-covered time counts as attributed: the server transaction and,
// on TCP, the reactor's write. The rest of a roundtrip is wire time no span
// covers: queue, the in-process hand-back, and on TCP the reactor's gap
// before writing and the outbound kernel path with the client's wake-up.
// Tracer timestamps are whole microseconds; each interval is a difference
// of two floors, which is unbiased over many transactions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "timing_transport.hpp"

namespace rnb::servebench {

struct TxnLayers {
  std::uint64_t matched = 0;  // roundtrips joined to exactly one server span
  // Means over the matched roundtrips, microseconds.
  double roundtrip_us = 0.0;  // the decorator's interval
  double queue_us = 0.0;
  double parse_us = 0.0;
  double dispatch_us = 0.0;
  double format_us = 0.0;
  double other_us = 0.0;
  double write_us = 0.0;

  double spanned_us = 0.0;  // covered by server spans

  double unspanned_us() const noexcept { return roundtrip_us - spanned_us; }
};

/// `socket_wire` selects the write interval: the reactor's write span
/// (roundtrips whose span was lost are skipped) or the in-process hand-back.
inline TxnLayers join_layers(const std::vector<obs::TraceEvent>& events,
                             const std::vector<RoundtripMark>& marks,
                             bool socket_wire) {
  struct ServerTxn {
    const obs::TraceEvent* span = nullptr;
    double parse = 0.0;
    double dispatch = 0.0;
    double format = 0.0;
    bool has_parse = false;
  };
  constexpr std::uint64_t kAmbiguous = 0;
  const auto is = [](const obs::TraceEvent& e, std::string_view name) {
    return e.phase == 'X' && std::string_view(e.cat) == "server" &&
           std::string_view(e.name) == name;
  };

  std::unordered_map<std::uint64_t, ServerTxn> txns;  // by server span id
  // Client span id -> its one server transaction (kAmbiguous when a client
  // span parented several, e.g. retries or back-to-back write-backs).
  std::unordered_map<std::uint64_t, std::uint64_t> txn_of_client;
  struct Write {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };
  std::unordered_map<std::uint64_t, Write> write_of_client;
  for (const obs::TraceEvent& e : events) {
    if (is(e, "transaction")) {
      txns[e.span_id].span = &e;
      if (e.parent_id == 0) continue;
      const auto [it, fresh] = txn_of_client.emplace(e.parent_id, e.span_id);
      if (!fresh) it->second = kAmbiguous;
    } else if (is(e, "write") && e.parent_id != 0) {
      const auto [it, fresh] =
          write_of_client.emplace(e.parent_id, Write{e.ts, e.ts + e.dur});
      if (!fresh) it->second.end = std::max(it->second.end, e.ts + e.dur);
    }
  }
  for (const obs::TraceEvent& e : events) {
    const auto it = txns.find(e.parent_id);
    if (e.parent_id == 0 || it == txns.end()) continue;
    if (is(e, "parse")) {
      it->second.parse += static_cast<double>(e.dur);
      it->second.has_parse = true;
    } else if (is(e, "dispatch")) {
      it->second.dispatch += static_cast<double>(e.dur);
    } else if (is(e, "format")) {
      it->second.format += static_cast<double>(e.dur);
    }
  }

  TxnLayers out;
  for (const RoundtripMark& mark : marks) {
    const auto link = txn_of_client.find(mark.span_id);
    if (link == txn_of_client.end() || link->second == kAmbiguous) continue;
    const ServerTxn& txn = txns.at(link->second);
    if (!txn.has_parse) continue;  // children lost to ring wrap-around
    const obs::TraceEvent& span = *txn.span;
    const double dur = static_cast<double>(span.dur);
    double write = static_cast<double>(mark.end_us) -
                   static_cast<double>(span.ts + span.dur);
    if (socket_wire) {
      const auto w = write_of_client.find(mark.span_id);
      if (w == write_of_client.end()) continue;
      write = static_cast<double>(std::min(w->second.end, mark.end_us)) -
              static_cast<double>(std::min(w->second.start, mark.end_us));
    }
    ++out.matched;
    out.roundtrip_us += static_cast<double>(mark.end_us) -
                        static_cast<double>(mark.start_us);
    out.queue_us += static_cast<double>(span.ts) -
                    static_cast<double>(mark.start_us);
    out.parse_us += txn.parse;
    out.dispatch_us += txn.dispatch;
    out.format_us += txn.format;
    out.other_us += dur - txn.parse - txn.dispatch - txn.format;
    out.write_us += write;
    out.spanned_us += dur + (socket_wire ? write : 0.0);
  }
  if (out.matched > 0) {
    const double n = static_cast<double>(out.matched);
    for (double* v : {&out.roundtrip_us, &out.queue_us, &out.parse_us,
                      &out.dispatch_us,
                      &out.format_us, &out.other_us, &out.write_us,
                      &out.spanned_us})
      *v /= n;
  }
  return out;
}

}  // namespace rnb::servebench
