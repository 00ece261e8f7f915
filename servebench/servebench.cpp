// servebench: the serving benchmark of the live RnB tier.
//
// One run boots a dserve fleet (ServerGroup), loads a key universe, and
// drives it with closed-loop client threads, each a KvClusterClient that
// issues its next operation only when the previous one returned. Keys are
// Zipf(0.99) over the universe; the request stream comes from --seed.
// Every value returned and every set ack is checked.
//
//   servebench --workload mget_loopback --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports per-layer
// metrics, measured from outside the program: a timing KvTransport
// decorator under each client, `stats` scrapes before and after the run,
// a replay of the client's placement lookups and cover planning on the
// same request stream, and a second, traced run whose server spans split
// each wire roundtrip into server stages (trace_layers.hpp). The last line
// of standard output is one JSON object; the lines above it are a
// readable report. Exit code 1 means an operation failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dserve/cluster_client.hpp"
#include "dserve/server_group.hpp"
#include "kv/protocol.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/promtext.hpp"
#include "obs/trace.hpp"
#include "setcover/greedy.hpp"
#include "timing_transport.hpp"
#include "trace_layers.hpp"

namespace rnb::servebench {
namespace {

using Clock = std::chrono::steady_clock;
using dserve::GroupWire;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  GroupWire wire;
  ServerId servers;
  std::uint32_t replication;
  std::uint32_t batch;          // keys per multi-get (M)
  std::uint64_t keys;           // universe size
  double relative_memory;       // copies of the data; 0 = unlimited
  unsigned threads;             // closed-loop client threads
  double set_fraction;          // share of operations that are sets
  bool hitchhiking;             // piggyback covered keys (limited memory)
  std::uint32_t pool_ops;       // shared request pool; 0 = fresh draws
  bool one_cpu;                 // run client and servers on a single CPU
};

constexpr std::size_t kValueBytes = 100;
constexpr double kZipf = 0.99;
constexpr std::size_t kShards = 4;
/// Multi-gets replayed through placement and cover planning.
constexpr std::uint32_t kReplayOps = 2048;
constexpr int kMaxWarmupPhases = 12;

constexpr Workload kWorkloads[] = {
    // In-process wire, replicas preinstalled: client planning, placement,
    // encode/decode and the engine's hot path set the time. One client:
    // with two sharing the in-process servers, p99 ranged 110-162 us over
    // five runs against 106-116 us with one.
    {"mget_loopback", GroupWire::kLoopback, 16, 3, 32, 20000, 0.0, 1, 0.0,
     false, 8192, false},
    // Real sockets, reactor servers: every transaction pays a kernel round
    // trip and the client waits for their sum. Client and servers share one
    // CPU, so each hop is a same-CPU context switch; across CPUs of a
    // virtual machine the wake-ups dominated and varied run to run.
    {"mget_tcp", GroupWire::kTcp, 4, 2, 32, 20000, 0.0, 1, 0.0, false, 4096,
     true},
    // 1.5 copies of the data, replicas start cold, 10% sets: writes, LRU
    // evictions, round-2 fetches and write-backs all run (Fig. 8 regime).
    // Its requests are fresh draws, not a replayed pool: replaying one
    // keeps the replica classes drifting for a minute, so the figures
    // depended on how much work a run had done.
    {"overbooked_rw", GroupWire::kLoopback, 8, 3, 16, 200000, 1.5, 2, 0.1,
     true, 0, false},
};

bool unlimited(const Workload& w) { return w.relative_memory <= 0.0; }

// ------------------------------------------------------------------ values
//
// A value spells its key and a write generation, padded to kValueBytes
// with a letter derived from the key:  <key>:<generation, 8 digits>:aaaa...

char fill_of(std::string_view key) {
  return static_cast<char>('a' + fnv1a64(key) % 26);
}

std::string make_value(std::string_view key, std::uint32_t generation) {
  char head[64];
  const int n = std::snprintf(head, sizeof(head), "%.*s:%08" PRIu32 ":",
                              static_cast<int>(key.size()), key.data(),
                              generation);
  std::string value(head, static_cast<std::size_t>(n));
  value.resize(kValueBytes, fill_of(key));
  return value;
}

/// The generation `value` encodes when it is a well-formed value of `key`,
/// or -1.
std::int64_t generation_of(std::string_view key, std::string_view value) {
  const std::size_t k = key.size();
  if (value.size() != kValueBytes || k + 10 > value.size() ||
      value.substr(0, k) != key || value[k] != ':' || value[k + 9] != ':')
    return -1;
  std::uint32_t generation = 0;
  const char* digits = value.data() + k + 1;
  const auto [end, ec] = std::from_chars(digits, digits + 8, generation);
  if (ec != std::errc() || end != digits + 8) return -1;
  const char fill = fill_of(key);
  for (std::size_t i = k + 10; i < value.size(); ++i)
    if (value[i] != fill) return -1;
  return generation;
}

// -------------------------------------------------------------- requests
//
// Operations come from the seed. With a pool, every thread walks one
// shared pool from its own offset, so on the unlimited-memory workloads
// (where an operation's transactions depend on its keys alone) a run that
// stops at whole passes has exactly the pool's transactions per request.
// Without one, each thread draws from its own stream.

/// Draw one operation into `ids` (universe indices); true for a set.
bool draw_op(const Workload& w, const ZipfSampler& zipf, Xoshiro256& rng,
             std::vector<std::uint32_t>& ids) {
  const bool set = rng.uniform01() < w.set_fraction;
  ids.resize(set ? 1 : w.batch);
  for (std::uint32_t& id : ids) id = static_cast<std::uint32_t>(zipf(rng));
  return set;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream;
}

struct Op {
  std::uint32_t first = 0;  // into Pool::keys
  std::uint32_t count = 0;
  bool set = false;
};

struct Pool {
  std::vector<Op> ops;
  std::vector<std::uint32_t> keys;  // universe indices
};

Pool make_pool(const Workload& w, const ZipfSampler& zipf, std::uint64_t seed,
               std::uint32_t size) {
  Pool pool;
  Xoshiro256 rng(stream_seed(seed, 0));
  std::vector<std::uint32_t> ids;
  pool.ops.reserve(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    Op op;
    op.set = draw_op(w, zipf, rng, ids);
    op.first = static_cast<std::uint32_t>(pool.keys.size());
    op.count = static_cast<std::uint32_t>(ids.size());
    pool.keys.insert(pool.keys.end(), ids.begin(), ids.end());
    pool.ops.push_back(op);
  }
  return pool;
}

// ----------------------------------------------------------------- workers

struct OpTally {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t txns = 0;  // planned wire transactions (the paper's TPR)
  std::uint64_t round1 = 0;
  std::uint64_t round2 = 0;
  std::uint64_t recover = 0;
  std::uint64_t hitchhikers = 0;
  std::uint64_t retries = 0;
  std::uint64_t op_ns = 0;

  void merge(const OpTally& o) {
    ops += o.ops;
    failed += o.failed;
    txns += o.txns;
    round1 += o.round1;
    round2 += o.round2;
    recover += o.recover;
    hitchhikers += o.hitchhikers;
    retries += o.retries;
    op_ns += o.op_ns;
  }
};

/// Operation latencies of one phase in fixed-length windows (1 s, or a
/// quarter of a short phase), by the time each operation ended. Histograms
/// keep the memory fixed however many operations a run completes.
class Windows {
 public:
  static constexpr unsigned kBits = 9;  // 0.2% value resolution

  explicit Windows(double seconds = 1.0)
      : len_s_(seconds >= 4.0 ? 1.0 : seconds / 4.0),
        len_ns_(static_cast<std::uint64_t>(len_s_ * 1e9)),
        latency_ns_(static_cast<std::size_t>(seconds / len_s_ + 1e-9),
                    obs::Histogram(kBits)) {}

  void record(std::uint64_t end_ns, std::uint64_t latency_ns) {
    const std::uint64_t w = end_ns / len_ns_;
    if (w < latency_ns_.size()) latency_ns_[w].record(latency_ns);
  }

  void merge(const Windows& other) {
    for (std::size_t w = 0; w < latency_ns_.size(); ++w)
      latency_ns_[w].merge(other.latency_ns_[w]);
  }

  double len_s() const noexcept { return len_s_; }
  const std::vector<obs::Histogram>& latency_ns() const noexcept {
    return latency_ns_;
  }

 private:
  double len_s_;
  std::uint64_t len_ns_;
  std::vector<obs::Histogram> latency_ns_;
};

struct Worker {
  Worker(dserve::ServerGroup& group,
         const dserve::KvClusterClientConfig& config, std::size_t start,
         std::uint64_t seed)
      : connection(group.connect()),
        timed(*connection),
        client(timed, group.view(), config),
        cursor(start),
        rng(seed) {}

  std::unique_ptr<dserve::GroupConnection> connection;
  TimingTransport timed;
  dserve::KvClusterClient client;
  std::size_t cursor;  // next pool index
  Xoshiro256 rng;      // this thread's stream when there is no pool
  std::vector<std::uint32_t> ids;
  OpTally tally;
  Windows windows;
  std::vector<std::string> batch;
};

struct Bench {
  const Workload& w;
  std::vector<std::string> universe;
  ZipfSampler zipf;
  Pool pool;  // the shared pool, or a sample of the streams for replay
  /// Latest generation issued per key; a read may see any issued one.
  std::unique_ptr<std::atomic<std::uint32_t>[]> generation;
  std::unique_ptr<dserve::ServerGroup> group;
  std::vector<std::unique_ptr<Worker>> workers;
  std::uint64_t attempted = 0;  // every operation of every phase
  std::uint64_t failed = 0;
  std::uint64_t wire_failed = 0;  // transport errors (none on a clean wire)
};

/// The worker's next operation's key ids; true for a set.
std::pair<bool, std::span<const std::uint32_t>> next_op(const Bench& b,
                                                         Worker& wk) {
  if (b.w.pool_ops == 0) {
    const bool set = draw_op(b.w, b.zipf, wk.rng, wk.ids);
    return {set, wk.ids};
  }
  const Op& op = b.pool.ops[wk.cursor];
  wk.cursor = (wk.cursor + 1) % b.pool.ops.size();
  return {op.set, std::span(b.pool.keys).subspan(op.first, op.count)};
}

struct OpTiming {
  Clock::time_point end;
  std::uint64_t latency_ns = 0;
};

/// Run and check one operation. Failures count in the tally.
OpTiming run_op(Bench& b, Worker& wk) {
  const auto [set, ids] = next_op(b, wk);
  OpTally& t = wk.tally;
  bool ok = true;
  Clock::time_point t0;
  Clock::time_point t1;
  if (set) {
    const std::uint32_t id = ids[0];
    const std::string& key = b.universe[id];
    const std::uint32_t gen =
        b.generation[id].fetch_add(1, std::memory_order_relaxed) + 1;
    const std::string value = make_value(key, gen);
    t0 = Clock::now();
    const std::uint32_t stored = wk.client.set(key, value);
    t1 = Clock::now();
    // Every copy acks on a clean wire, the pinned distinguished one too.
    ok = stored == b.w.replication;
    t.txns += b.w.replication;
  } else {
    wk.batch.resize(ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k)
      wk.batch[k] = b.universe[ids[k]];
    t0 = Clock::now();
    const auto result = wk.client.multi_get(wk.batch);
    t1 = Clock::now();
    ok = result.missing.empty();
    for (std::size_t k = 0; ok && k < ids.size(); ++k) {
      const auto it = result.values.find(wk.batch[k]);
      const std::int64_t gen =
          it == result.values.end() ? -1
                                    : generation_of(wk.batch[k], it->second);
      ok = gen >= 0 &&
           gen <= b.generation[ids[k]].load(std::memory_order_relaxed);
    }
    t.txns += result.transactions();
    t.round1 += result.round1_transactions;
    t.round2 += result.round2_transactions;
    t.recover += result.recover_transactions;
    t.hitchhikers += result.hitchhiker_keys;
    t.retries += result.retries;
  }
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  ++t.ops;
  if (!ok) ++t.failed;
  t.op_ns += ns;
  return {t1, ns};
}

struct Phase {
  double seconds = 0.0;  // the measured window
  double wall_s = 0.0;   // until the last thread stopped
  OpTally ops;
  WireTally wire;
  Windows windows;
};

/// Closed loop on every worker for `seconds`. With `whole_passes` each
/// thread runs on to the end of its current pass over the pool; the
/// latency windows only cover `seconds` either way.
Phase run_phase(Bench& b, double seconds, bool whole_passes) {
  const std::size_t pool_size = b.pool.ops.size();
  for (auto& wk : b.workers) {
    wk->tally = OpTally{};
    wk->windows = Windows(seconds);
    wk->timed.reset();
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(b.workers.size());
  for (auto& worker : b.workers) {
    threads.emplace_back([&b, &wk = *worker, start, deadline, pool_size,
                          whole_passes] {
      std::uint64_t done = 0;
      Clock::time_point now = Clock::now();
      while (now < deadline || (whole_passes && done % pool_size != 0)) {
        const OpTiming op = run_op(b, wk);
        now = op.end;
        ++done;
        wk.windows.record(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                     start)
                    .count()),
            op.latency_ns);
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase phase;
  phase.seconds = seconds;
  phase.wall_s = seconds_between(start, Clock::now());
  phase.windows = Windows(seconds);
  for (auto& wk : b.workers) {
    phase.ops.merge(wk->tally);
    phase.wire.merge(wk->timed.tally());
    phase.windows.merge(wk->windows);
  }
  b.attempted += phase.ops.ops;
  b.failed += phase.ops.failed;
  b.wire_failed += phase.wire.failed;
  return phase;
}

// ----------------------------------------------------------------- windows

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Throughput {
  double req_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t windows = 0;
  std::uint64_t samples = 0;
  std::uint64_t min_window_samples = 0;
};

/// The median across the phase's windows of each window's throughput, p50
/// and p99, so one burst of interference moves one window, not the figure.
Throughput window_medians(const Phase& phase) {
  const Windows& win = phase.windows;
  Throughput out;
  out.windows = win.latency_ns().size();
  out.min_window_samples = UINT64_MAX;
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const obs::Histogram& h : win.latency_ns()) {
    out.samples += h.count();
    out.min_window_samples = std::min(out.min_window_samples, h.count());
    if (h.empty()) continue;
    rate.push_back(static_cast<double>(h.count()) / win.len_s());
    p50.push_back(static_cast<double>(h.quantile(0.50)) / 1e3);
    p99.push_back(static_cast<double>(h.quantile(0.99)) / 1e3);
  }
  out.req_per_s = median(rate);
  out.p50_us = median(p50);
  out.p99_us = median(p99);
  return out;
}

// ------------------------------------------------------------------- setup

std::unique_ptr<dserve::ServerGroup> boot(const Workload& w,
                                          const std::vector<std::string>& keys,
                                          std::uint64_t* rejected) {
  dserve::ServerGroupConfig config;
  config.num_servers = w.servers;
  config.wire = w.wire;
  config.server_model = kv::ServerModel::kReactor;
  config.shards_per_server = kShards;
  config.view.replication = w.replication;
  if (!unlimited(w))
    config.bytes_per_server = dserve::ServerGroup::replica_budget(
        w.keys, keys.front().size(), kValueBytes, w.relative_memory,
        w.servers);
  auto group = std::make_unique<dserve::ServerGroup>(config);
  const auto stats = group->load(
      keys, [](std::string_view key) { return make_value(key, 0); },
      /*preinstall_replicas=*/unlimited(w));
  *rejected = stats.rejected;
  return group;
}

/// Server counters summed over the fleet, plus per-server transactions.
struct FleetCounters {
  std::vector<double> txns;
  double stores = 0.0;
  double keys_requested = 0.0;
  double keys_returned = 0.0;
  double lock_acquisitions = 0.0;
  double lock_contended = 0.0;
  double evictions = 0.0;
};

double sample_sum(const obs::PromScrape& scrape, std::string_view name) {
  double sum = 0.0;
  for (const obs::PromFamily& fam : scrape.families)
    for (const obs::PromSample& s : fam.samples)
      if (s.name == name) sum += s.value;
  return sum;
}

/// One `stats` frame to every server, over the first worker's undecorated
/// connection (idle between phases, so no extra sockets).
FleetCounters scrape(Bench& b) {
  constexpr std::string_view kEnd = "END\r\n";
  std::string request;
  kv::encode_stats(request);
  FleetCounters c;
  for (ServerId s = 0; s < b.w.servers; ++s) {
    std::string response;
    const auto r = b.workers.front()->connection->roundtrip(s, request,
                                                            response);
    std::string_view text = response;
    if (text.ends_with(kEnd)) text.remove_suffix(kEnd.size());
    obs::PromScrape parsed;
    if (!r.ok() || !obs::parse_prometheus(text, parsed))
      throw std::runtime_error("stats scrape failed on server " +
                               std::to_string(s));
    c.txns.push_back(sample_sum(parsed, "rnb_kv_transactions_total"));
    c.stores += sample_sum(parsed, "rnb_kv_stores_total");
    c.keys_requested += sample_sum(parsed, "rnb_kv_keys_requested_total");
    c.keys_returned += sample_sum(parsed, "rnb_kv_keys_returned_total");
    c.lock_acquisitions +=
        sample_sum(parsed, "rnb_kv_shard_lock_acquisitions_total");
    c.lock_contended += sample_sum(parsed, "rnb_kv_shard_lock_contended_total");
    c.evictions += sample_sum(parsed, "rnb_kv_shard_evictions_total");
  }
  return c;
}

// ----------------------------------------------------------------- replay

struct PlanReplay {
  double lookup_us = 0.0;    // ClusterView::replicas for one request's keys
  double plan_us = 0.0;      // greedy_cover for one request
  double servers_used = 0.0;
};

/// Replay the client's placement lookups and cover planning on the pool's
/// multi-gets (deduplicated as multi_get does); median of three passes.
PlanReplay replay_planning(const Bench& b, std::size_t max_requests) {
  std::vector<std::vector<std::string_view>> requests;
  for (const Op& op : b.pool.ops) {
    if (op.set) continue;
    if (requests.size() == max_requests) break;
    std::vector<std::string_view> items;
    std::unordered_set<std::string_view> seen;
    for (std::uint32_t k = 0; k < op.count; ++k) {
      const std::string_view key = b.universe[b.pool.keys[op.first + k]];
      if (seen.insert(key).second) items.push_back(key);
    }
    requests.push_back(std::move(items));
  }
  const dserve::ClusterView& view = b.group->view();
  const double n = static_cast<double>(requests.size());
  std::vector<double> lookup;
  std::vector<double> plan;
  PlanReplay out;
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<CoverInstance> instances(requests.size());
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < requests.size(); ++r) {
      instances[r].candidates.reserve(requests[r].size());
      for (const std::string_view key : requests[r])
        instances[r].candidates.push_back(view.replicas(key));
    }
    const auto t1 = Clock::now();
    std::size_t servers = 0;
    for (const CoverInstance& instance : instances)
      servers += greedy_cover(instance).servers_used.size();
    const auto t2 = Clock::now();
    lookup.push_back(seconds_between(t0, t1) * 1e6 / n);
    plan.push_back(seconds_between(t1, t2) * 1e6 / n);
    out.servers_used = static_cast<double>(servers) / n;
  }
  out.lookup_us = median(lookup);
  out.plan_us = median(plan);
  return out;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, const Bench& b,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(b.attempted);
  out += ", \"failed\": " + std::to_string(b.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Peak resident set of this process, MiB.
double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0)
    throw std::runtime_error("getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -------------------------------------------------------------------- main

/// Restrict this thread, and every thread it starts later (servers and
/// clients), to the highest CPU it may run on.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0)
      throw std::runtime_error("sched_setaffinity failed");
    return;
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // self-test size: a tenth of the keys and pool
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + flag);
    }
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny")
        throw std::invalid_argument("--size is full or tiny");
      a.tiny = value == "tiny";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) found = &w;
  if (found == nullptr)
    throw std::invalid_argument("unknown workload " + args.workload);
  Workload w = *found;
  if (args.tiny) {
    w.keys /= 10;
    w.pool_ops /= 16;
  }

  if (w.one_cpu) pin_to_one_cpu();

  Bench b{w, {}, ZipfSampler(w.keys, kZipf), {}, {}, {}, {}};
  b.universe.reserve(w.keys);
  for (std::uint64_t id = 0; id < w.keys; ++id) {
    char key[24];
    std::snprintf(key, sizeof(key), "k%08" PRIu64, id);
    b.universe.emplace_back(key);
  }
  b.pool = make_pool(w, b.zipf, args.seed,
                     w.pool_ops > 0 ? w.pool_ops : kReplayOps);
  b.generation = std::make_unique<std::atomic<std::uint32_t>[]>(w.keys);

  // Set-up: boot + load, several times; the last fleet serves the run.
  const int setups = args.tiny ? 2 : 5;
  std::vector<double> setup_s;
  std::uint64_t rejected = 0;
  for (int i = 0; i < setups; ++i) {
    b.group.reset();
    const auto t0 = Clock::now();
    b.group = boot(w, b.universe, &rejected);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (rejected != 0) break;
  }
  dserve::KvClusterClientConfig client_config;
  client_config.hitchhiking = w.hitchhiking;
  for (unsigned t = 0; t < w.threads; ++t)
    b.workers.push_back(std::make_unique<Worker>(
        *b.group, client_config, t * b.pool.ops.size() / w.threads,
        stream_seed(args.seed, t + 1)));

  // Warm-up: short untimed phases until throughput and transactions per
  // operation level off (replica classes fill on the overbooked fleet).
  const double chunk = std::min(0.5, args.seconds / 4.0);
  double warm_s = 0.0;
  int chunks = 0;
  double prev_rate = 0.0;
  double prev_tpr = 0.0;
  while (chunks < kMaxWarmupPhases) {
    const Phase p = run_phase(b, chunk, /*whole_passes=*/false);
    ++chunks;
    warm_s += p.wall_s;
    const auto ops = static_cast<double>(p.ops.ops);
    const double rate = ops / p.wall_s;
    const double tpr = static_cast<double>(p.ops.txns) / ops;
    if (chunks > 1 && std::abs(rate - prev_rate) <= 0.03 * prev_rate &&
        std::abs(tpr - prev_tpr) <= 0.01 * prev_tpr)
      break;
    prev_rate = rate;
    prev_tpr = tpr;
  }

  std::printf("servebench %s seed=%" PRIu64 "%s: %u servers (%s), r=%u, "
              "M=%u, %" PRIu64 " keys, %u client threads\n",
              w.name, args.seed, args.tiny ? " (tiny)" : "", w.servers,
              w.wire == GroupWire::kTcp ? "tcp reactor" : "in-process",
              w.replication, w.batch, w.keys, w.threads);
  std::printf("  set-up %.4f s (median of %zu boot+load), warm-up %.2f s "
              "(%d phases)\n",
              median(setup_s), setup_s.size(), warm_s, chunks);

  const bool exact_passes = w.pool_ops > 0;
  std::vector<Metric> metrics;
  if (!args.trace) {
    const Phase p = run_phase(b, args.seconds, exact_passes);
    const Throughput tp = window_medians(p);
    std::printf("  measured %.2f s in %zu windows: %" PRIu64 " ops, %" PRIu64
                " latency samples (fewest in a window: %" PRIu64 ")\n",
                p.seconds, tp.windows, p.ops.ops, tp.samples,
                tp.min_window_samples);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"req_per_s", tp.req_per_s, "1/s"},
        {"lat_p50_us", tp.p50_us, "us"},
        {"lat_p99_us", tp.p99_us, "us"},
        {"txns_per_req",
         ratio(static_cast<double>(p.ops.txns),
               static_cast<double>(p.ops.ops)),
         "txn"},
        {"rss_mb", peak_rss_mb(), "MiB"},
    };
  } else {
    // Untraced half: client, wire and stats-scrape layers.
    const FleetCounters before = scrape(b);
    const Phase p = run_phase(b, args.seconds / 2.0, exact_passes);
    const FleetCounters after = scrape(b);
    const Throughput tp = window_medians(p);

    // Traced half: server spans joined to the decorator's marks.
    obs::Tracer tracer(obs::Tracer::ClockMode::kWall, 1 << 16);
    obs::Tracer::set_current(&tracer);
    const Phase traced = run_phase(b, args.seconds / 2.0, exact_passes);
    // Reactor threads record a response's write span after the client
    // has it; give them a moment before reading the rings.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    obs::Tracer::set_current(nullptr);
    std::vector<RoundtripMark> marks;
    for (const auto& wk : b.workers)
      marks.insert(marks.end(), wk->timed.marks().begin(),
                   wk->timed.marks().end());
    const TxnLayers layers = join_layers(tracer.snapshot_events(), marks,
                                         w.wire == GroupWire::kTcp);
    const Throughput traced_tp = window_medians(traced);

    const PlanReplay replay = replay_planning(b, args.tiny ? 256 : kReplayOps);

    const auto ops = static_cast<double>(p.ops.ops);
    const double op_us = static_cast<double>(p.ops.op_ns) / ops / 1e3;
    const double wait_us = static_cast<double>(p.wire.busy_ns) / ops / 1e3;
    const double rts = static_cast<double>(p.wire.roundtrips);

    std::vector<double> load;
    for (std::size_t s = 0; s < after.txns.size(); ++s)
      load.push_back(after.txns[s] - before.txns[s] - 1);  // minus a scrape
    double load_sum = 0.0;
    for (const double l : load) load_sum += l;
    const double load_mean = load_sum / static_cast<double>(load.size());
    const double get_txns =
        load_sum - (after.stores - before.stores);

    // Budget over the traced half: an operation is client self time plus
    // time in roundtrips; the joined roundtrips say which share of
    // roundtrip time each server span covers. The rest is unattributed.
    const auto t_ops = static_cast<double>(traced.ops.ops);
    const double t_op_us = static_cast<double>(traced.ops.op_ns) / t_ops / 1e3;
    const double t_wait_us =
        static_cast<double>(traced.wire.busy_ns) / t_ops / 1e3;
    const double t_self_us = t_op_us - t_wait_us;
    const double stage_scale = ratio(t_wait_us, layers.roundtrip_us);
    const double unattributed =
        stage_scale * layers.unspanned_us() / t_op_us;

    std::printf("  untraced %.2f s: %" PRIu64 " ops, %.0f req/s; traced "
                "%.2f s: %" PRIu64 " ops, %.0f req/s; %" PRIu64
                " roundtrips joined to server spans\n",
                p.seconds, p.ops.ops, tp.req_per_s, traced.seconds,
                traced.ops.ops, traced_tp.req_per_s, layers.matched);
    std::printf("  layer budget (traced, us per operation, %.2f roundtrips "
                "each):\n",
                static_cast<double>(traced.wire.roundtrips) / t_ops);
    const auto row = [&](const char* layer, double us) {
      std::printf("    %-38s %10.3f  %5.1f%%\n", layer, us,
                  100.0 * us / t_op_us);
    };
    row("client self (plan, encode, decode)", t_self_us);
    row("  of which replayed placement lookup", replay.lookup_us);
    row("  of which replayed cover planning", replay.plan_us);
    row("server parse", stage_scale * layers.parse_us);
    row("server dispatch (engine)", stage_scale * layers.dispatch_us);
    row("server format", stage_scale * layers.format_us);
    row("server other (inside transaction)", stage_scale * layers.other_us);
    if (w.wire == GroupWire::kTcp)
      row("server write (reactor span)", stage_scale * layers.write_us);
    row("unattributed (wire time outside spans)",
        stage_scale * layers.unspanned_us());
    row("  of which server queue (inbound)", stage_scale * layers.queue_us);
    row("operation (end to end)", t_op_us);

    metrics = {
        {"dserve.op_us", op_us, "us"},
        {"dserve.self_us", op_us - wait_us, "us"},
        {"dserve.round1_txns", static_cast<double>(p.ops.round1) / ops, "txn"},
        {"dserve.round2_txns", static_cast<double>(p.ops.round2) / ops, "txn"},
        {"dserve.recover_txns", static_cast<double>(p.ops.recover) / ops,
         "txn"},
        {"dserve.hitchhiker_keys",
         static_cast<double>(p.ops.hitchhikers) / ops, "key"},
        {"dserve.retries", static_cast<double>(p.ops.retries) / ops, "count"},
        {"setcover.plan_us", replay.plan_us, "us"},
        {"setcover.servers_used", replay.servers_used, "count"},
        {"hashring.lookup_us", replay.lookup_us, "us"},
        {"wire.roundtrip_us", static_cast<double>(p.wire.busy_ns) / rts / 1e3,
         "us"},
        {"wire.roundtrip_p99_us",
         static_cast<double>(p.wire.latency_ns.quantile(0.99)) / 1e3, "us"},
        {"wire.roundtrips_per_req", rts / ops, "count"},
        {"wire.req_bytes", static_cast<double>(p.wire.request_bytes) / rts,
         "B"},
        {"wire.resp_bytes", static_cast<double>(p.wire.response_bytes) / rts,
         "B"},
        {"wire.sets_per_req", static_cast<double>(p.wire.sets) / ops,
         "count"},
        {"wire.wait_share", wait_us / op_us, "ratio"},
        {"wire.failed", static_cast<double>(p.wire.failed), "count"},
        {"server.queue_us", layers.queue_us, "us"},
        {"server.parse_us", layers.parse_us, "us"},
        {"server.dispatch_us", layers.dispatch_us, "us"},
        {"server.format_us", layers.format_us, "us"},
        {"server.other_us", layers.other_us, "us"},
        {"server.write_us", layers.write_us, "us"},
        {"server.keys_per_txn",
         ratio(after.keys_requested - before.keys_requested, get_txns), "key"},
        {"server.hit_frac",
         ratio(after.keys_returned - before.keys_returned,
               after.keys_requested - before.keys_requested),
         "ratio"},
        {"server.load_max_mean",
         ratio(*std::max_element(load.begin(), load.end()), load_mean),
         "ratio"},
        {"engine.evictions_per_req",
         (after.evictions - before.evictions) / ops, "count"},
        {"engine.lock_contended_frac",
         ratio(after.lock_contended - before.lock_contended,
               after.lock_acquisitions - before.lock_acquisitions),
         "ratio"},
        {"trace.overhead", ratio(traced_tp.req_per_s, tp.req_per_s), "ratio"},
        {"budget.unattributed_frac", unattributed, "ratio"},
    };
  }

  std::printf("  failed_frac %s ratio (%" PRIu64 " of %" PRIu64 ")\n",
              number(ratio(static_cast<double>(b.failed),
                           static_cast<double>(b.attempted)))
                  .c_str(),
              b.failed, b.attempted);
  bool correct = b.failed == 0 && b.wire_failed == 0 && rejected == 0;
  for (const Metric& m : metrics) correct = correct && std::isfinite(m.value);
  print_result(correct, b, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rnb::servebench

int main(int argc, char** argv) {
  try {
    return rnb::servebench::run(rnb::servebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
