// dsmbench: the repository's deterministic benchmark (see README.md).
//
// One process runs one workload. Each *round* builds a fresh cluster,
// loads it, runs a fixed number of generated operations with every lane of
// every compute node as a task of ONE rt::Scheduler on one host thread, and
// checks the outputs against a ledger the benchmark keeps itself. Rounds
// repeat until --seconds of host time have passed. Simulated results are a
// pure function of (workload, seed, ops), so every round must reproduce the
// first one bit for bit; host-clock figures (set-up, CPU per op) are
// reported as medians over the rounds.
//
// Every layer is measured from outside, through public stats accessors and
// by timing the benchmark's own calls into public functions.

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "core/dsmdb.h"
#include "index/sherman_btree.h"
#include "obs/critical_path.h"
#include "obs/obs_config.h"
#include "obs/trace.h"
#include "rt/scheduler.h"
#include "workload/smallbank.h"

namespace dsmdb::dsmbench {
namespace {

using core::ComputeNode;
using core::Table;
using core::TxnOp;

// --- Shared shape of every workload ------------------------------------------

constexpr uint32_t kMemoryNodes = 2;
constexpr uint32_t kComputeNodes = 2;
constexpr uint64_t kKeys = 100'000;
constexpr uint32_t kValueSize = 64;

/// Closed-loop client: an aborted transaction retries the same ops after a
/// randomized exponential backoff in simulated time, up to this many
/// attempts in total.
constexpr uint32_t kAttemptBudget = 64;
constexpr uint64_t kBackoffBaseNs = 1'000;
constexpr uint64_t kBackoffCapNs = 64'000;

constexpr size_t kScanLimit = 50;

enum class Kind { kYcsbDirect, kSmallBankSharded, kBTreeKv };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  core::Architecture arch;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"ycsb_direct", Kind::kYcsbDirect, core::Architecture::kNoCacheNoSharding},
    {"smallbank_sharded", Kind::kSmallBankSharded,
     core::Architecture::kCacheSharding},
    {"btree_kv", Kind::kBTreeKv, core::Architecture::kNoCacheNoSharding},
};

/// What one round runs. The benchmark's workloads use the defaults; the
/// other values exist only to reproduce the excluded configurations
/// listed in README.md.
struct Config {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  uint64_t ops = 40'000;  ///< Operations per round (all lanes together).
  core::Architecture arch = core::Architecture::kNoCacheNoSharding;
  txn::CcProtocolKind protocol = txn::CcProtocolKind::kTwoPlNoWait;
  core::DurabilityMode durability = core::DurabilityMode::kNone;
  uint32_t lanes_per_node = 2;

  uint32_t lanes() const { return kComputeNodes * lanes_per_node; }
};

/// Route of one ExecuteOneShot attempt, decided on the benchmark side from
/// ShardManager::OwnerOf (always kLocal without sharding).
enum Route { kLocal = 0, kDelegated = 1, kTwoPc = 2, kRoutes = 3 };
const char* const kRouteNames[kRoutes] = {"local", "delegated", "two_pc"};

enum IndexOp { kSearch = 0, kInsert = 1, kScan = 2, kIndexOps = 3 };
const char* const kIndexOpNames[kIndexOps] = {"search", "insert", "scan"};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL + b;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Initial first-8-byte value of record `key` (ycsb_direct counters and
/// smallbank_sharded balances).
int64_t InitialValue(Kind kind, uint64_t key) {
  return kind == Kind::kYcsbDirect ? static_cast<int64_t>(key % 1'000)
                                   : 10'000 + static_cast<int64_t>(key % 97);
}

/// The value every B+tree key maps to, loaded or inserted.
uint64_t TreeValue(uint64_t key) { return Mix(key, 0x7EE) | 1; }

double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct HostUsage {
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
};

HostUsage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Exact nearest-rank percentile of sorted raw samples (ns).
uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Mean of the samples at or above the nearest-rank `p` percentile: a
/// tail statistic that, unlike the order statistic itself, does not sit on
/// one modal verb-count cost (ns).
double TailMean(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  double sum = 0;
  for (size_t i = rank - 1; i < sorted.size(); i++) {
    sum += static_cast<double>(sorted[i]);
  }
  return sum / static_cast<double>(sorted.size() - rank + 1);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PerOp(uint64_t count, uint64_t ops) {
  return ops == 0 ? 0.0
                  : static_cast<double>(count) / static_cast<double>(ops);
}

double Ratio(uint64_t num, uint64_t den) { return PerOp(num, den); }

// --- Bench-side spans (traced rounds) ------------------------------------------

/// One span recorded by the benchmark around a public call. Spans of one
/// client transaction (or index call) share `txn`.
struct BenchSpan {
  const char* name;
  uint64_t txn;
  uint32_t lane;
  int32_t route;  ///< Route of an attempt; -1 otherwise.
  uint64_t start_ns;
  uint64_t dur_ns;
  bool host_clock;  ///< Set-up phases are host time, the rest simulated.
};

class SpanLog {
 public:
  void Enable(size_t reserve) {
    enabled_ = true;
    spans_.reserve(reserve);
  }
  void Add(const char* name, uint64_t txn, uint32_t lane, int32_t route,
           uint64_t start_ns, uint64_t dur_ns, bool host_clock = false) {
    if (enabled_) {
      spans_.push_back({name, txn, lane, route, start_ns, dur_ns, host_clock});
    }
  }
  size_t size() const { return spans_.size(); }

  /// Chrome trace_event JSON: pid 0 is the simulated timeline (one tid per
  /// lane), pid 1 the host-clock set-up phases.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); i++) {
      const BenchSpan& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%u,"
                   "\"args\":{\"txn\":%" PRIu64 "%s%s%s}}",
                   i == 0 ? "" : ",\n", s.name,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, s.host_clock ? 1 : 0,
                   s.lane, s.txn, s.route >= 0 ? ",\"route\":\"" : "",
                   s.route >= 0 ? kRouteNames[s.route] : "",
                   s.route >= 0 ? "\"" : "");
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<BenchSpan> spans_;
};

// --- One round ---------------------------------------------------------------------

/// Simulated counters of one timed phase (deltas of public stats). Every
/// field repeats exactly for a given (workload, seed, ops).
struct SimCounters {
  uint64_t sim_ns = 0;
  uint64_t issued = 0;     ///< Client transactions / index calls issued.
  uint64_t completed = 0;  ///< Committed transactions / successful calls.
  uint64_t failed = 0;     ///< Non-OK status or retry budget used up.
  uint64_t attempts = 0;
  uint64_t backoff_ns = 0;
  rdma::VerbStats::Values verbs{};
  uint64_t cc_begun = 0, cc_committed = 0, lock_aborts = 0,
           validation_aborts = 0;
  uint64_t route_attempts[kRoutes] = {};
  uint64_t two_pc_txns = 0, two_pc_aborts = 0;
  uint64_t pool_hits = 0, pool_misses = 0, evictions = 0, writebacks = 0;
  uint64_t tree_read_retries = 0, tree_cache_hits = 0, tree_cache_misses = 0,
           tree_splits = 0, tree_link_chases = 0;
  uint64_t parks = 0, spin_yields = 0;
};

struct RoundResult {
  SimCounters c;
  std::vector<uint64_t> latency;  ///< Sorted: first attempt -> commit (ns).
  std::vector<uint64_t> route_latency[kRoutes];  ///< Sorted per attempt.
  std::vector<uint64_t> index_latency[kIndexOps];
  double cluster_s = 0, load_s = 0;  ///< Host CPU seconds.
  double setup_wall_s = 0;
  double cpu_s = 0, wall_s = 0;
  uint64_t ctx_switches = 0;
  obs::LatencyBreakdown path;  ///< Traced rounds only.
  uint64_t trace_dropped = 0;
  std::vector<std::string> gate_failures;
  std::string gate_summary;

  double setup_s() const { return cluster_s + load_s; }

  /// Every simulated output of the round, printed exactly; two rounds are
  /// deterministic replicas iff their signatures are equal.
  std::string Signature() const {
    std::string s;
    char buf[64];
    auto put = [&](uint64_t v) {
      std::snprintf(buf, sizeof(buf), "%" PRIu64 ",", v);
      s += buf;
    };
    const rdma::VerbStats::Values& v = c.verbs;
    for (uint64_t x :
         {c.sim_ns, c.issued, c.completed, c.failed, c.attempts, c.backoff_ns,
          v.one_sided_reads, v.one_sided_writes, v.cas_ops, v.faa_ops,
          v.rpc_calls, v.bytes_read, v.bytes_written, v.batches, c.cc_begun,
          c.cc_committed, c.lock_aborts, c.validation_aborts,
          c.route_attempts[0], c.route_attempts[1], c.route_attempts[2],
          c.two_pc_txns, c.two_pc_aborts, c.pool_hits, c.pool_misses,
          c.evictions, c.writebacks, c.tree_read_retries, c.tree_cache_hits,
          c.tree_cache_misses, c.tree_splits, c.tree_link_chases, c.parks,
          c.spin_yields}) {
      put(x);
    }
    auto hash = [&](const std::vector<uint64_t>& xs) {
      uint64_t h = xs.size();
      for (uint64_t x : xs) h = Mix(h, x);
      put(h);
    };
    hash(latency);
    for (const auto& r : route_latency) hash(r);
    for (const auto& r : index_latency) hash(r);
    return s;
  }
};

/// Per-lane state. Lanes of one scheduler never run concurrently, so they
/// share the ledger and the sample vectors without synchronization.
struct Lane {
  uint32_t index = 0;
  ComputeNode* node = nullptr;
  index::ShermanBTree* tree = nullptr;
  Random64 rng{1};
  Random64 backoff_rng{1};
  std::unique_ptr<ZipfianGenerator> zipf;
  std::unique_ptr<workload::SmallBankWorkload> smallbank;
  uint64_t insert_cursor = 0;  ///< btree_kv: next new key is 2 * cursor + 1.
};

class Round {
 public:
  Round(const Config& cfg, bool traced, SpanLog* spans)
      : cfg_(cfg), spec_(*cfg.spec), traced_(traced), spans_(spans) {}

  RoundResult Run() {
    Setup();
    TimedPhase();
    CheckOutputs();
    return std::move(r_);
  }

 private:
  // --- Set-up ---

  void Setup() {
    // Set-up is timed in host CPU seconds: it runs on this one thread, and
    // CPU time does not count the waits when a co-tenant holds the CPU.
    const double t0 = HostNow();
    const double c0 = ReadUsage().cpu_s;
    dsm::ClusterOptions copts;
    copts.num_memory_nodes = kMemoryNodes;
    core::DbOptions dopts;
    dopts.architecture = cfg_.arch;
    dopts.cc.protocol = cfg_.protocol;
    dopts.durability = cfg_.durability;
    // With the default (on) the pool charges measured host nanoseconds to
    // the simulated clock, which would make simulated results host-bound.
    dopts.buffer.charge_policy_overhead = false;
    dopts.buffer.capacity_bytes = 1 << 20;  // a quarter of a node's shard
    db_ = std::make_unique<core::DsmDb>(copts, dopts);
    for (uint32_t i = 0; i < kComputeNodes; i++) {
      nodes_.push_back(db_->AddComputeNode());
    }
    if (spec_.kind == Kind::kBTreeKv) {
      Result<dsm::GlobalAddress> meta =
          index::ShermanBTree::Create(&db_->admin());
      if (!meta.ok()) Fatal("btree create", meta.status());
      tree_meta_ = *meta;
      for (ComputeNode* cn : nodes_) {
        trees_.push_back(std::make_unique<index::ShermanBTree>(
            &cn->dsm(), tree_meta_, index::BTreeOptions{}));
      }
    } else {
      Result<const Table*> t =
          db_->CreateTable("bench", {kValueSize, kKeys});
      if (!t.ok()) Fatal("create table", t.status());
      table_ = *t;
    }
    Status s = db_->FinishSetup();
    if (!s.ok()) Fatal("finish setup", s);
    shards_ = db_->shards("bench");
    const double t1 = HostNow();
    const double c1 = ReadUsage().cpu_s;
    Load();
    const double t2 = HostNow();
    r_.cluster_s = c1 - c0;
    r_.load_s = ReadUsage().cpu_s - c1;
    r_.setup_wall_s = t2 - t0;
    spans_->Add("setup.cluster", 0, 0, -1,
                static_cast<uint64_t>(t0 * 1e9),
                static_cast<uint64_t>((t1 - t0) * 1e9), true);
    spans_->Add("setup.load", 0, 0, -1, static_cast<uint64_t>(t1 * 1e9),
                static_cast<uint64_t>((t2 - t1) * 1e9), true);
  }

  void Load() {
    if (spec_.kind == Kind::kBTreeKv) {
      // Random insertion order leaves the leaves partly full, as in a
      // tree grown by live traffic (a sorted load would leave them at
      // exactly half, and the odd-key inserts would then never split).
      std::vector<uint64_t> keys(kKeys);
      for (uint64_t i = 0; i < kKeys; i++) keys[i] = 2 * (i + 1);
      Random64 rng(Mix(cfg_.seed, 0x10AD));
      for (uint64_t i = kKeys - 1; i > 0; i--) {
        std::swap(keys[i], keys[rng.Uniform(i + 1)]);
      }
      index::ShermanBTree loader(&db_->admin(), tree_meta_);
      for (uint64_t key : keys) {
        Status s = loader.Insert(key, TreeValue(key));
        if (!s.ok()) Fatal("btree preload", s);
      }
      return;
    }
    // Record values written straight into DSM through the admin client
    // (headers were zeroed by Table::Create; caches start empty).
    expected_.resize(kKeys);
    constexpr size_t kChunk = 64;
    std::vector<std::string> bufs(kChunk, std::string(kValueSize, '\0'));
    std::vector<dsm::DsmBatchOp> batch;
    for (uint64_t base = 0; base < kKeys; base += kChunk) {
      batch.clear();
      for (uint64_t k = base; k < std::min(kKeys, base + kChunk); k++) {
        const int64_t v = InitialValue(spec_.kind, k);
        expected_[k] = v;
        initial_total_ += v;
        std::string& buf = bufs[k - base];
        EncodeFixed64(buf.data(), static_cast<uint64_t>(v));
        batch.push_back({table_->RefFor(k).Value(), buf.data(), kValueSize});
      }
      Status s = db_->admin().WriteBatch(batch);
      if (!s.ok()) Fatal("load", s);
    }
  }

  // --- Timed phase ---

  struct Snapshot {
    rdma::VerbStats::Values verbs{};
    uint64_t cc_begun = 0, cc_committed = 0, lock_aborts = 0,
             validation_aborts = 0, two_pc_txns = 0, two_pc_aborts = 0;
    buffer::BufferPoolStats pool;
    uint64_t tree[5] = {};
  };

  Snapshot Take() {
    Snapshot s;
    s.verbs = db_->cluster().fabric().TotalStats();
    for (ComputeNode* cn : nodes_) {
      txn::CcStats& cc = cn->cc().stats();
      s.cc_begun += cc.begun.load();
      s.cc_committed += cc.committed.load();
      s.lock_aborts += cc.lock_aborts.load();
      s.validation_aborts += cc.validation_aborts.load();
      s.two_pc_txns += cn->node_stats().two_pc_txns.load();
      s.two_pc_aborts += cn->node_stats().two_pc_aborts.load();
      if (cn->pool() != nullptr) {
        const buffer::BufferPoolStats p = cn->pool()->Snapshot();
        s.pool.hits += p.hits;
        s.pool.misses += p.misses;
        s.pool.evictions += p.evictions;
        s.pool.writebacks += p.writebacks;
      }
    }
    for (const auto& t : trees_) {
      index::BTreeStats& b = t->stats();
      s.tree[0] += b.read_retries.load();
      s.tree[1] += b.cache_hits.load();
      s.tree[2] += b.cache_misses.load();
      s.tree[3] += b.splits.load();
      s.tree[4] += b.link_chases.load();
    }
    return s;
  }

  void TimedPhase() {
    const uint32_t n_lanes = cfg_.lanes();
    std::vector<Lane> lanes(n_lanes);
    for (uint32_t i = 0; i < n_lanes; i++) {
      Lane& l = lanes[i];
      l.index = i;
      l.node = nodes_[i / cfg_.lanes_per_node];
      if (!trees_.empty()) l.tree = trees_[i / cfg_.lanes_per_node].get();
      const uint64_t lane_seed =
          Mix(Mix(cfg_.seed, static_cast<uint64_t>(spec_.kind)), i);
      l.rng = Random64(lane_seed);
      l.backoff_rng = Random64(Mix(lane_seed, 0xB0FF));
      switch (spec_.kind) {
        case Kind::kYcsbDirect:
          l.zipf = std::make_unique<ZipfianGenerator>(kKeys, 0.99,
                                                      Mix(lane_seed, 1));
          break;
        case Kind::kBTreeKv:
          l.zipf = std::make_unique<ZipfianGenerator>(kKeys, 0.99,
                                                      Mix(lane_seed, 1));
          l.insert_cursor = Mix(lane_seed, 2) % kKeys;
          break;
        case Kind::kSmallBankSharded: {
          workload::SmallBankOptions o;
          o.num_accounts = kKeys;
          o.zipf_theta = 0.9;
          o.value_size = kValueSize;
          o.cross_shard_fraction = 0.2;
          o.num_shards = kComputeNodes;
          l.smallbank =
              std::make_unique<workload::SmallBankWorkload>(o, lane_seed);
          break;
        }
      }
    }

    std::unique_ptr<obs::ScopedAttribution> attribution;
    if (traced_) {
      // Rings sized so no event of the timed phase is dropped.
      obs::TraceCollector::Instance().SetBufferCapacity(
          static_cast<size_t>(cfg_.ops / n_lanes + 1) * 96);
      attribution = std::make_unique<obs::ScopedAttribution>();
    }
    const Snapshot before = Take();
    const HostUsage u0 = ReadUsage();
    const double w0 = HostNow();
    const uint64_t sim0 = SimClock::Now();

    rt::Scheduler sched;
    sched.Run([&] {
      for (Lane& l : lanes) {
        sched.Spawn([this, &l, n_lanes] {
          const uint64_t n =
              cfg_.ops / n_lanes + (l.index < cfg_.ops % n_lanes ? 1 : 0);
          for (uint64_t i = 0; i < n; i++) {
            if (spec_.kind == Kind::kBTreeKv) {
              IndexCall(l);
            } else {
              ClientTxn(l);
            }
          }
        });
      }
    });
    SimClock::AdvanceTo(sched.FinalSimNs());

    const double w1 = HostNow();
    const HostUsage u1 = ReadUsage();
    if (attribution != nullptr) {
      r_.path = attribution->Finish();
      r_.trace_dropped = obs::TraceCollector::Instance().dropped();
      attribution.reset();
    }
    const Snapshot after = Take();

    SimCounters& c = r_.c;
    c.sim_ns = sched.FinalSimNs() - sim0;
    const rdma::VerbStats::Values &a = after.verbs, &b = before.verbs;
    c.verbs = {a.one_sided_reads - b.one_sided_reads,
               a.one_sided_writes - b.one_sided_writes,
               a.cas_ops - b.cas_ops,
               a.faa_ops - b.faa_ops,
               a.rpc_calls - b.rpc_calls,
               a.bytes_read - b.bytes_read,
               a.bytes_written - b.bytes_written,
               a.batches - b.batches};
    c.cc_begun = after.cc_begun - before.cc_begun;
    c.cc_committed = after.cc_committed - before.cc_committed;
    c.lock_aborts = after.lock_aborts - before.lock_aborts;
    c.validation_aborts = after.validation_aborts - before.validation_aborts;
    c.two_pc_txns = after.two_pc_txns - before.two_pc_txns;
    c.two_pc_aborts = after.two_pc_aborts - before.two_pc_aborts;
    c.pool_hits = after.pool.hits - before.pool.hits;
    c.pool_misses = after.pool.misses - before.pool.misses;
    c.evictions = after.pool.evictions - before.pool.evictions;
    c.writebacks = after.pool.writebacks - before.pool.writebacks;
    c.tree_read_retries = after.tree[0] - before.tree[0];
    c.tree_cache_hits = after.tree[1] - before.tree[1];
    c.tree_cache_misses = after.tree[2] - before.tree[2];
    c.tree_splits = after.tree[3] - before.tree[3];
    c.tree_link_chases = after.tree[4] - before.tree[4];
    const rt::Scheduler::Stats st = sched.GetStats();
    c.parks = st.parks;
    c.spin_yields = st.spin_yields;

    r_.cpu_s = u1.cpu_s - u0.cpu_s;
    r_.wall_s = w1 - w0;
    r_.ctx_switches = u1.ctx_switches - u0.ctx_switches;
    std::sort(r_.latency.begin(), r_.latency.end());
    for (auto& v : r_.route_latency) std::sort(v.begin(), v.end());
    for (auto& v : r_.index_latency) std::sort(v.begin(), v.end());
  }

  std::vector<TxnOp> NextTxn(Lane& l) {
    if (spec_.kind == Kind::kSmallBankSharded) return l.smallbank->NextTxn();
    // ycsb_direct: 4 distinct keys in ascending order (lock-ordering
    // discipline); 5% of ops are +1 increments, the rest reads.
    std::vector<uint64_t> keys;
    while (keys.size() < 4) {
      const uint64_t k = l.zipf->NextScrambled();
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
    std::sort(keys.begin(), keys.end());
    std::vector<TxnOp> ops;
    for (uint64_t k : keys) {
      ops.push_back(l.rng.Bernoulli(0.05) ? TxnOp::Add(k, 1)
                                          : TxnOp::Read(k));
    }
    return ops;
  }

  Route RouteOf(const ComputeNode& node, const std::vector<TxnOp>& ops) const {
    if (shards_ == nullptr) return kLocal;
    const uint32_t first = shards_->OwnerOf(ops[0].key);
    for (const TxnOp& op : ops) {
      if (shards_->OwnerOf(op.key) != first) return kTwoPc;
    }
    return first == node.slot() ? kLocal : kDelegated;
  }

  void ClientTxn(Lane& l) {
    const std::vector<TxnOp> ops = NextTxn(l);
    // All attempts and backoffs of one client transaction share a trace
    // txn id, so the critical-path buckets add up to its full latency.
    obs::TraceTxnScope txn_scope("bench.txn", "bench");
    const uint64_t span_txn = ++span_txn_seq_;
    const Route route = RouteOf(*l.node, ops);
    SimCounters& c = r_.c;
    c.issued++;
    const uint64_t t0 = SimClock::Now();
    bool committed = false;
    bool hard_error = false;
    for (uint32_t attempt = 0; attempt < kAttemptBudget; attempt++) {
      if (attempt > 0) {
        const uint64_t cap =
            std::min(kBackoffCapNs, kBackoffBaseNs << std::min(attempt, 6u));
        const uint64_t wait = 1 + l.backoff_rng.Uniform(cap);
        const uint64_t b0 = SimClock::Now();
        rt::SimWait(b0 + wait);
        const uint64_t waited = SimClock::Now() - b0;
        c.backoff_ns += waited;
        // The critical-path analysis books lock.wait spans as lock_wait.
        if (obs::ObsConfig::TracingEnabled()) {
          obs::EmitSpan("bench.backoff", "lock.wait", b0, waited);
        }
        spans_->Add("backoff", span_txn, l.index, -1, b0, waited);
      }
      c.attempts++;
      c.route_attempts[route]++;
      const uint64_t a0 = SimClock::Now();
      Result<core::TxnResult> res = l.node->ExecuteOneShot(*table_, ops);
      const uint64_t a1 = SimClock::Now();
      r_.route_latency[route].push_back(a1 - a0);
      spans_->Add("attempt", span_txn, l.index, route, a0, a1 - a0);
      if (!res.ok()) {
        Gate("txn.status", "ExecuteOneShot returned " +
                               res.status().ToString());
        hard_error = true;
        break;
      }
      if (res->committed) {
        committed = true;
        break;
      }
    }
    const uint64_t t1 = SimClock::Now();
    spans_->Add("txn", span_txn, l.index, -1, t0, t1 - t0);
    if (!committed) {
      c.failed++;
      if (!hard_error) Gate("txn.retry_budget", "a transaction used up "
                            "its attempt budget");
      return;
    }
    c.completed++;
    r_.latency.push_back(t1 - t0);
    for (const TxnOp& op : ops) {
      if (op.type == core::TxnOpType::kAdd) {
        expected_[op.key] += op.delta;
        // Payments move money between accounts; only deposits (and the
        // ycsb +1 increments) change the total.
        if (ops.size() == 1 || spec_.kind == Kind::kYcsbDirect) {
          committed_delta_ += op.delta;
        }
      }
    }
  }

  void IndexCall(Lane& l) {
    const double p = l.rng.NextDouble();
    obs::TraceTxnScope call_scope("bench.index", "bench");
    SimCounters& c = r_.c;
    c.issued++;
    c.attempts++;
    const uint64_t span_txn = ++span_txn_seq_;
    const uint64_t t0 = SimClock::Now();
    IndexOp op;
    bool ok = true;
    if (p < 0.85) {
      op = kSearch;
      const uint64_t key = 2 * (l.zipf->NextScrambled() + 1);
      Result<uint64_t> v = l.tree->Search(key);
      if (!v.ok()) {
        ok = false;
        Gate("index.search_status", "Search returned " +
                                        v.status().ToString());
      } else if (*v != TreeValue(key)) {
        Gate("index.search_value", "Search(" + std::to_string(key) +
                                       ") did not return the loaded value");
      }
    } else if (p < 0.95) {
      op = kInsert;
      // New odd keys, ascending from a random point per lane: consecutive
      // keys fill one leaf at a time, so inserts split leaves.
      const uint64_t key = 2 * (l.insert_cursor++ % kKeys) + 1;
      Status s = l.tree->Insert(key, TreeValue(key));
      if (s.ok()) {
        acked_inserts_.push_back(key);
      } else {
        ok = false;
        Gate("index.insert_status", "Insert returned " + s.ToString());
      }
    } else {
      op = kScan;
      const uint64_t start = 2 * (l.zipf->NextScrambled() + 1) -
                             l.rng.Uniform(2);
      auto res = l.tree->Scan(start, kScanLimit);
      if (!res.ok()) {
        ok = false;
        Gate("index.scan_status", "Scan returned " +
                                      res.status().ToString());
      } else {
        uint64_t prev = 0;
        for (size_t i = 0; i < res->size(); i++) {
          const auto& [k, v] = (*res)[i];
          if (k < start || (i > 0 && k <= prev) || res->size() > kScanLimit ||
              v != TreeValue(k)) {
            Gate("index.scan_order", "Scan(" + std::to_string(start) +
                                         ") returned an entry out of order, "
                                         "below its start, or with a wrong "
                                         "value");
            break;
          }
          prev = k;
        }
      }
    }
    const uint64_t t1 = SimClock::Now();
    r_.index_latency[op].push_back(t1 - t0);
    spans_->Add(kIndexOpNames[op], span_txn, l.index, -1, t0, t1 - t0);
    if (!ok) {
      c.failed++;
      return;
    }
    c.completed++;
    r_.latency.push_back(t1 - t0);
  }

  // --- Correctness gates (after the timed phase; not timed) ---

  void CheckOutputs() {
    if (spec_.kind == Kind::kBTreeKv) {
      CheckTree();
    } else {
      CheckLedger();
    }
    if (traced_ && r_.trace_dropped != 0) {
      Gate("trace.dropped", std::to_string(r_.trace_dropped) +
                                " trace events dropped");
    }
    db_.reset();
  }

  /// Reads every record back through ExecuteOneShot, on its owner when
  /// sharded, and compares it with the ledger of committed increments.
  void CheckLedger() {
    const char* gate = spec_.kind == Kind::kYcsbDirect ? "ycsb.sum"
                                                       : "smallbank.money";
    constexpr uint64_t kReadsPerTxn = 32;
    int64_t total = 0;
    uint64_t mismatched = 0;
    uint64_t first_bad = kKeys;
    for (uint64_t base = 0; base < kKeys;) {
      ComputeNode* cn = nodes_[0];
      uint64_t end = std::min(kKeys, base + kReadsPerTxn);
      if (shards_ != nullptr) {
        const uint32_t owner = shards_->OwnerOf(base);
        cn = nodes_[owner];
        while (end > base + 1 && shards_->OwnerOf(end - 1) != owner) end--;
      }
      std::vector<TxnOp> ops;
      for (uint64_t k = base; k < end; k++) ops.push_back(TxnOp::Read(k));
      Result<core::TxnResult> res = cn->ExecuteOneShot(*table_, ops);
      if (!res.ok() || !res->committed) {
        Gate(gate, "read-back transaction at key " + std::to_string(base) +
                       " did not commit");
        return;
      }
      for (uint64_t k = base; k < end; k++) {
        const int64_t v = static_cast<int64_t>(
            DecodeFixed64(res->reads[k - base].data()));
        total += v;
        if (v != expected_[k]) {
          mismatched++;
          first_bad = std::min(first_bad, k);
        }
      }
      base = end;
    }
    const int64_t want = initial_total_ + committed_delta_;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "total %" PRId64 " = initial %" PRId64
                  " + committed %" PRId64 " %s (drift %" PRId64
                  "); %" PRIu64 " records off their ledger value",
                  total, initial_total_, committed_delta_,
                  total == want ? "holds" : "FAILS", total - want,
                  mismatched);
    r_.gate_summary = std::string(gate) + ": " + buf;
    if (total != want || mismatched != 0) {
      Gate(gate, std::string(buf) + (mismatched != 0
                                         ? ", first at key " +
                                               std::to_string(first_bad)
                                         : ""));
    }
  }

  /// One full scan must return exactly the loaded keys plus every
  /// acknowledged insert, ascending, each with its value.
  void CheckTree() {
    std::vector<uint64_t> want;
    want.reserve(kKeys + acked_inserts_.size());
    for (uint64_t i = 1; i <= kKeys; i++) want.push_back(2 * i);
    want.insert(want.end(), acked_inserts_.begin(), acked_inserts_.end());
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    auto res = trees_[0]->Scan(0, 4 * kKeys);
    if (!res.ok()) {
      Gate("index.final_scan", "final Scan returned " +
                                   res.status().ToString());
      return;
    }
    bool ok = res->size() == want.size();
    for (size_t i = 0; ok && i < want.size(); i++) {
      ok = (*res)[i].first == want[i] &&
           (*res)[i].second == TreeValue(want[i]);
    }
    for (uint64_t key : acked_inserts_) {
      Result<uint64_t> v = trees_[1]->Search(key);
      if (!v.ok() || *v != TreeValue(key)) {
        ok = false;
        break;
      }
    }
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%zu keys found of %zu expected (%zu acknowledged "
                  "inserts) %s",
                  res->size(), want.size(), acked_inserts_.size(),
                  ok ? "holds" : "FAILS");
    r_.gate_summary = std::string("index.contents: ") + buf;
    if (!ok) Gate("index.contents", buf);
  }

  void Gate(const std::string& name, const std::string& detail) {
    if (r_.gate_failures.size() < 8) {
      r_.gate_failures.push_back(name + ": " + detail);
    }
  }

  [[noreturn]] static void Fatal(const char* what, const Status& s) {
    std::fprintf(stderr, "dsmbench: %s failed: %s\n", what,
                 s.ToString().c_str());
    std::exit(2);
  }

  const Config cfg_;
  const WorkloadSpec& spec_;
  const bool traced_;
  SpanLog* spans_;
  RoundResult r_;

  std::unique_ptr<core::DsmDb> db_;
  std::vector<ComputeNode*> nodes_;
  const Table* table_ = nullptr;
  core::ShardManager* shards_ = nullptr;
  dsm::GlobalAddress tree_meta_{};
  std::vector<std::unique_ptr<index::ShermanBTree>> trees_;

  std::vector<int64_t> expected_;  ///< Ledger: value each record must hold.
  int64_t initial_total_ = 0;
  int64_t committed_delta_ = 0;
  std::vector<uint64_t> acked_inserts_;
  uint64_t span_txn_seq_ = 0;
};

// --- Reporting -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

std::vector<Metric> SimMetrics(const RoundResult& r) {
  const SimCounters& c = r.c;
  const double sim_s = static_cast<double>(c.sim_ns) / 1e9;
  return {
      {"sim_tput", sim_s > 0 ? static_cast<double>(c.completed) / sim_s : 0,
       "1/s"},
      {"sim_tail_mean_us", TailMean(r.latency, 99) / 1e3, "us"},
  };
}

std::vector<Metric> LayerMetrics(const RoundResult& r) {
  const SimCounters& c = r.c;
  const uint64_t ops = c.completed;
  const rdma::VerbStats::Values& v = c.verbs;
  uint64_t attempts = 0;
  for (uint64_t a : c.route_attempts) attempts += a;
  const auto p50 = [](const std::vector<uint64_t>& s) {
    return Us(Percentile(s, 50));
  };
  const obs::LatencyBreakdown& b = r.path;
  const auto path = [&b](obs::LatencyBucket k) { return b.Mean(k) / 1e3; };
  return {
      {"sim_p50_us", Us(Percentile(r.latency, 50)), "us"},
      {"sim_p99_us", Us(Percentile(r.latency, 99)), "us"},
      {"rdma.round_trips_per_op", PerOp(v.RoundTrips(), ops), "count"},
      {"rdma.reads_per_op", PerOp(v.one_sided_reads, ops), "count"},
      {"rdma.writes_per_op", PerOp(v.one_sided_writes, ops), "count"},
      {"rdma.atomics_per_op", PerOp(v.cas_ops + v.faa_ops, ops), "count"},
      {"rdma.rpcs_per_op", PerOp(v.rpc_calls, ops), "count"},
      {"rdma.bytes_per_op", PerOp(v.bytes_read + v.bytes_written, ops), "B"},
      {"txn.attempts_per_commit", Ratio(c.cc_begun, c.cc_committed), "ratio"},
      {"txn.lock_aborts_per_op", PerOp(c.lock_aborts, ops), "count"},
      {"txn.validation_aborts_per_op", PerOp(c.validation_aborts, ops),
       "count"},
      {"core.local_share", Ratio(c.route_attempts[kLocal], attempts),
       "ratio"},
      {"core.delegated_share", Ratio(c.route_attempts[kDelegated], attempts),
       "ratio"},
      {"core.two_pc_share", Ratio(c.route_attempts[kTwoPc], attempts),
       "ratio"},
      {"core.two_pc_abort_ratio", Ratio(c.two_pc_aborts, c.two_pc_txns),
       "ratio"},
      {"core.local_p50_us", p50(r.route_latency[kLocal]), "us"},
      {"core.delegated_p50_us", p50(r.route_latency[kDelegated]), "us"},
      {"core.two_pc_p50_us", p50(r.route_latency[kTwoPc]), "us"},
      {"core.two_pc_p99_us", Us(Percentile(r.route_latency[kTwoPc], 99)),
       "us"},
      {"buffer.hit_ratio", Ratio(c.pool_hits, c.pool_hits + c.pool_misses),
       "ratio"},
      {"buffer.misses_per_op", PerOp(c.pool_misses, ops), "count"},
      {"buffer.evictions_per_op", PerOp(c.evictions, ops), "count"},
      {"buffer.writebacks_per_op", PerOp(c.writebacks, ops), "count"},
      {"index.search_p50_us", p50(r.index_latency[kSearch]), "us"},
      {"index.insert_p50_us", p50(r.index_latency[kInsert]), "us"},
      {"index.scan_p50_us", p50(r.index_latency[kScan]), "us"},
      {"index.read_retries_per_op", PerOp(c.tree_read_retries, ops), "count"},
      {"index.cache_hit_ratio",
       Ratio(c.tree_cache_hits, c.tree_cache_hits + c.tree_cache_misses),
       "ratio"},
      {"index.splits_per_op", PerOp(c.tree_splits, ops), "count"},
      {"index.link_chases_per_op", PerOp(c.tree_link_chases, ops), "count"},
      {"rt.parks_per_op", PerOp(c.parks, ops), "count"},
      {"rt.spin_yields_per_op", PerOp(c.spin_yields, ops), "count"},
      {"client.retries_per_op", PerOp(c.attempts - c.issued, ops), "count"},
      {"client.backoff_us_per_op", PerOp(c.backoff_ns, ops) / 1e3, "us"},
      {"client.fail_ratio", Ratio(c.failed, c.issued), "ratio"},
      {"client.latency_samples", static_cast<double>(r.latency.size()),
       "count"},
      {"path.cpu_us", path(obs::LatencyBucket::kCpu), "us"},
      {"path.verb_wire_us", path(obs::LatencyBucket::kVerbWire), "us"},
      {"path.verb_post_us", path(obs::LatencyBucket::kVerbPost), "us"},
      {"path.lock_wait_us", path(obs::LatencyBucket::kLockWait), "us"},
      {"path.handler_cpu_us", path(obs::LatencyBucket::kHandlerCpu), "us"},
      {"path.queue_wait_us", path(obs::LatencyBucket::kQueue), "us"},
      {"path.log_device_us", path(obs::LatencyBucket::kLog), "us"},
  };
}

void PrintJsonMetrics(const std::vector<Metric>& ms, std::string* out) {
  char buf[160];
  *out += "{";
  for (size_t i = 0; i < ms.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit);
    *out += buf;
  }
  *out += "}";
}

void PrintTable(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

// --- main ------------------------------------------------------------------------

struct Args {
  Config cfg;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_out";
  uint32_t min_rounds = 3;
};

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr,
               "dsmbench: %s\nusage: dsmbench --workload "
               "<ycsb_direct|smallbank_sharded|btree_kv> --seed <n> "
               "--seconds <s> --trace <0|1> [--ops <n>] [--out-dir <dir>] "
               "[--min-rounds <n>]\n"
               "  reproducing excluded configs: [--arch <3a|3b|3c>] "
               "[--protocol <2pl|occ|mvcc|tso>] [--lanes-per-node <n>] "
               "[--durability <none|memrep>]\n",
               msg.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  std::string arch, protocol, durability;
  for (int i = 1; i < argc; i++) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (v == w.name) a.cfg.spec = &w;
      }
      if (a.cfg.spec == nullptr) Usage("unknown workload '" + v + "'");
    } else if (k == "--seed") {
      a.cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--ops") {
      a.cfg.ops = std::max<uint64_t>(1, std::strtoull(v.c_str(), nullptr, 10));
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--min-rounds") {
      a.min_rounds = static_cast<uint32_t>(std::max(1, std::atoi(v.c_str())));
    } else if (k == "--arch") {
      arch = v;
    } else if (k == "--protocol") {
      protocol = v;
    } else if (k == "--lanes-per-node") {
      a.cfg.lanes_per_node =
          static_cast<uint32_t>(std::max(1, std::atoi(v.c_str())));
    } else if (k == "--durability") {
      durability = v;
    } else {
      Usage("unknown flag " + k);
    }
  }
  if (a.cfg.spec == nullptr) Usage("--workload is required");
  a.cfg.arch = a.cfg.spec->arch;
  if (!arch.empty()) {
    if (a.cfg.spec->kind == Kind::kBTreeKv) Usage("btree_kv has no --arch");
    const std::map<std::string, core::Architecture> archs = {
        {"3a", core::Architecture::kNoCacheNoSharding},
        {"3b", core::Architecture::kCacheNoSharding},
        {"3c", core::Architecture::kCacheSharding}};
    if (!archs.contains(arch)) Usage("unknown --arch " + arch);
    a.cfg.arch = archs.at(arch);
  }
  if (!protocol.empty()) {
    const std::map<std::string, txn::CcProtocolKind> protos = {
        {"2pl", txn::CcProtocolKind::kTwoPlNoWait},
        {"occ", txn::CcProtocolKind::kOcc},
        {"mvcc", txn::CcProtocolKind::kMvcc},
        {"tso", txn::CcProtocolKind::kTso}};
    if (!protos.contains(protocol)) Usage("unknown --protocol " + protocol);
    a.cfg.protocol = protos.at(protocol);
  }
  if (!durability.empty()) {
    if (durability != "none" && durability != "memrep") {
      Usage("unknown --durability " + durability);
    }
    a.cfg.durability = durability == "memrep"
                           ? core::DurabilityMode::kMemReplication
                           : core::DurabilityMode::kNone;
  }
  return a;
}

/// Only one lane runs at a time, so one CPU loses nothing; pinning keeps
/// the host figures from depending on how the kernel spreads the lane
/// threads over cores.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int cpu = sched_getcpu();
  if (cpu < 0 || !CPU_ISSET(cpu, &allowed)) {
    for (cpu = 0; cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed); cpu++) {
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Config& cfg = args.cfg;
  const WorkloadSpec* spec = cfg.spec;
  PinToOneCpu();

  std::printf("dsmbench %s seed=%" PRIu64 " ops/round=%" PRIu64
              " arch=%s protocol=%s durability=%s lanes=%u (%u CN x %u) "
              "trace=%d\n",
              spec->name, cfg.seed, cfg.ops,
              std::string(core::ArchitectureName(cfg.arch)).c_str(),
              std::string(txn::CcProtocolKindName(cfg.protocol)).c_str(),
              cfg.durability == core::DurabilityMode::kNone ? "none"
                                                            : "memrep",
              cfg.lanes(), kComputeNodes, cfg.lanes_per_node, args.trace);

  // Untraced rounds until the time budget is spent; a traced run adds one
  // traced round at the end.
  SpanLog untraced_spans;
  std::vector<RoundResult> rounds;
  double peak_rss_mb = 0;
  const double start = HostNow();
  while (rounds.size() < args.min_rounds ||
         HostNow() - start < args.seconds) {
    rounds.push_back(Round(cfg, /*traced=*/false, &untraced_spans).Run());
    // Process-wide state that outlives a cluster grows the peak by about
    // 1 MB a round, so the peak is taken after the first round: the figure
    // must not depend on how many rounds fit in --seconds.
    if (rounds.size() == 1) peak_rss_mb = PeakRssMb();
    const RoundResult& r = rounds.back();
    std::printf("round %zu: setup %.4f s cpu (cluster %.4f + load %.4f) / "
                "%.4f s wall, timed %.4f s cpu / %.4f s wall, %" PRIu64
                " ctx switches, peak rss %.1f MB\n",
                rounds.size(), r.setup_s(), r.cluster_s, r.load_s,
                r.setup_wall_s, r.cpu_s, r.wall_s, r.ctx_switches,
                PeakRssMb());
    if (!r.gate_failures.empty()) break;  // never retried
    if (rounds.size() >= 200) break;
  }
  SpanLog spans;
  std::unique_ptr<RoundResult> traced;
  if (args.trace != 0) {
    spans.Enable(cfg.ops * 4);
    obs::ObsConfig::SetEnabled(true);
    traced = std::make_unique<RoundResult>(
        Round(cfg, /*traced=*/true, &spans).Run());
    obs::ObsConfig::SetEnabled(false);
    std::printf("traced round: setup %.4f s, timed %.4f s cpu, %zu bench "
                "spans, %" PRIu64 " obs events dropped\n",
                traced->setup_s(), traced->cpu_s, spans.size(),
                traced->trace_dropped);
  }

  // Gates: the program's outputs, then determinism across rounds and
  // tracing as a pure observer.
  const RoundResult& first = rounds.front();
  std::vector<std::string> failures;
  for (const RoundResult& r : rounds) {
    for (const std::string& f : r.gate_failures) failures.push_back(f);
  }
  if (traced != nullptr) {
    for (const std::string& f : traced->gate_failures) failures.push_back(f);
  }
  const std::string sig = first.Signature();
  for (size_t i = 1; i < rounds.size(); i++) {
    if (rounds[i].Signature() != sig) {
      failures.push_back("determinism: round " + std::to_string(i + 1) +
                         " simulated results differ from round 1");
      break;
    }
  }
  if (traced != nullptr && traced->Signature() != sig) {
    failures.push_back("trace.observe_only: traced round simulated results "
                       "differ from the untraced rounds");
  }

  std::vector<double> setup, cluster, load, cpu, ctx;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s());
    cluster.push_back(r.cluster_s);
    load.push_back(r.load_s);
    cpu.push_back(r.cpu_s);
    ctx.push_back(static_cast<double>(r.ctx_switches));
  }
  if (traced != nullptr) {
    setup.push_back(traced->setup_s());
    cluster.push_back(traced->cluster_s);
    load.push_back(traced->load_s);
  }
  const uint64_t done = first.c.completed;
  const double cpu_med = Median(cpu);

  std::vector<Metric> end_to_end = SimMetrics(first);
  end_to_end.push_back({"setup_s", Median(setup), "s"});
  end_to_end.push_back({"peak_rss_mb", peak_rss_mb, "MB"});

  std::vector<Metric> layers =
      LayerMetrics(traced != nullptr ? *traced : first);
  layers.push_back({"rt.host_cpu_us_per_op",
                    done > 0 ? cpu_med * 1e6 / static_cast<double>(done) : 0,
                    "us"});
  layers.push_back({"rt.ctx_switches_per_op",
                    done > 0 ? Median(ctx) / static_cast<double>(done) : 0,
                    "count"});
  layers.push_back({"setup.cluster_s", Median(cluster), "s"});
  layers.push_back({"setup.load_s", Median(load), "s"});
  layers.push_back({"trace.host_overhead_ratio",
                    traced != nullptr && cpu_med > 0
                        ? traced->cpu_s / cpu_med - 1.0
                        : 0.0,
                    "ratio"});

  std::printf("\n%zu untraced rounds; simulated latency from %zu committed "
              "samples (p50 = rank %zu, p99 = rank %zu)\n",
              rounds.size(), first.latency.size(),
              static_cast<size_t>(
                  std::ceil(0.50 * static_cast<double>(first.latency.size()))),
              static_cast<size_t>(
                  std::ceil(0.99 * static_cast<double>(first.latency.size()))));
  for (int r = 0; r < kRoutes; r++) {
    std::printf("route %-9s %8zu attempt samples\n", kRouteNames[r],
                first.route_latency[r].size());
  }
  for (int o = 0; o < kIndexOps; o++) {
    std::printf("index %-6s %9zu call samples\n", kIndexOpNames[o],
                first.index_latency[o].size());
  }
  std::printf("gate %s\n", first.gate_summary.c_str());
  uint64_t sig_hash = sig.size();
  for (char ch : sig) sig_hash = Mix(sig_hash, static_cast<uint8_t>(ch));
  std::printf("SIM_SIGNATURE %016" PRIx64 "\n", sig_hash);
  std::printf("end-to-end:\n");
  PrintTable(end_to_end);
  std::printf("per-layer%s:\n", traced != nullptr ? " (traced round)" : "");
  PrintTable(layers);

  if (traced != nullptr) {
    mkdir(args.out_dir.c_str(), 0755);
    const std::string path = args.out_dir + "/spans-" + spec->name +
                             "-seed" + std::to_string(cfg.seed) + ".json";
    if (spans.Write(path)) {
      std::printf("bench spans: wrote %s\n", path.c_str());
    } else {
      failures.push_back("trace.write: cannot write " + path);
    }
  }

  uint64_t attempted = 0, failed = 0;
  for (const RoundResult& r : rounds) {
    attempted += r.c.issued;
    failed += r.c.failed;
  }
  if (traced != nullptr) {
    attempted += traced->c.issued;
    failed += traced->c.failed;
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "GATE FAILED %s\n", f.c_str());
  }
  std::string json;
  json += failures.empty() ? "{\"correct\": true" : "{\"correct\": false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": ";
  PrintJsonMetrics(args.trace != 0 ? layers : end_to_end, &json);
  json += "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace dsmdb::dsmbench

int main(int argc, char** argv) { return dsmdb::dsmbench::Main(argc, argv); }
