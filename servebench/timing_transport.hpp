// TimingTransport: a KvTransport decorator that measures the wire layer
// from outside.
//
// The benchmark puts one between each worker's KvClusterClient and its
// GroupConnection, so every frame the client sends (bundled gets, sets,
// write-backs) is timed and counted without touching the client. While a
// tracer is installed it also remembers, per roundtrip, the client span the
// call ran under and its start/end on the tracer's clock; the trace
// analysis joins those marks to the server spans stitched under the same
// client span (trace_layers.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "kv/kv_transport.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/trace.hpp"

namespace rnb::servebench {

/// One traced roundtrip: the enclosing client span and the call's interval
/// in tracer microseconds.
struct RoundtripMark {
  std::uint64_t span_id = 0;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
};

struct WireTally {
  std::uint64_t roundtrips = 0;
  std::uint64_t failed = 0;  // non-kOk transport results
  std::uint64_t sets = 0;    // set frames (client sets and write-backs)
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
  std::uint64_t busy_ns = 0;  // summed roundtrip time
  obs::Histogram latency_ns{7};

  void merge(const WireTally& other) {
    roundtrips += other.roundtrips;
    failed += other.failed;
    sets += other.sets;
    request_bytes += other.request_bytes;
    response_bytes += other.response_bytes;
    busy_ns += other.busy_ns;
    latency_ns.merge(other.latency_ns);
  }
};

class TimingTransport final : public kv::KvTransport {
 public:
  /// Traced marks kept per transport; older marks are overwritten, like
  /// the tracer's own rings.
  static constexpr std::size_t kMarkCapacity = 1 << 15;

  explicit TimingTransport(kv::KvTransport& inner) : inner_(inner) {}

  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }

  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    obs::Tracer* const tracer = obs::Tracer::current();
    RoundtripMark mark;
    const auto t0 = std::chrono::steady_clock::now();
    if (tracer != nullptr) {
      mark.span_id = obs::Tracer::ambient_context().span_id;
      mark.start_us = tracer->now();
    }
    const kv::TransportResult result = inner_.roundtrip(s, request, response);
    if (tracer != nullptr) mark.end_us = tracer->now();
    const auto t1 = std::chrono::steady_clock::now();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    ++tally_.roundtrips;
    if (!result.ok()) ++tally_.failed;
    if (request.starts_with("set ")) ++tally_.sets;
    tally_.request_bytes += request.size();
    tally_.response_bytes += response.size();
    tally_.busy_ns += ns;
    tally_.latency_ns.record(ns);
    if (tracer != nullptr) {
      if (marks_.size() < kMarkCapacity)
        marks_.push_back(mark);
      else
        marks_[marks_pushed_ % kMarkCapacity] = mark;
      ++marks_pushed_;
    }
    return result;
  }

  const WireTally& tally() const noexcept { return tally_; }
  const std::vector<RoundtripMark>& marks() const noexcept { return marks_; }

  /// Start a fresh measurement phase.
  void reset() {
    tally_ = WireTally{};
    marks_.clear();
    marks_pushed_ = 0;
  }

 private:
  kv::KvTransport& inner_;
  WireTally tally_;
  std::vector<RoundtripMark> marks_;
  std::uint64_t marks_pushed_ = 0;
};

}  // namespace rnb::servebench
