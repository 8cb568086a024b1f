// KvService: the primary — per-shard MVCC stores fronted by a WAL,
// exposed through two RPC tiers in one process:
//
//  * the string-heavy client-facing KV program (PUT/GET/DEL with
//    string keys and opaque values) registers plain layered handlers —
//    strings are outside the plan-eligible subset, so this traffic
//    exercises the *generic* codecs, exactly like the original
//    examples/kvstore toy;
//  * the fixed-shape KV_REPL log-shipping program (see kv/repl.h)
//    rides the plan/JIT fast path on both ends.
//
// Commit path: encode the mutation as a WAL payload, group-commit it
// (one fsync per batch, kv/wal.h), then apply to the shard's MvccStore
// strictly in sequence order (a per-shard condition variable lines up
// the batch's committers) and append to the retained log tail the
// replicator ships from.  Commit latency (entry to applied) feeds the
// kv.commit_latency_ns histogram; WAL batching counters, store gauges
// and the duplicate-apply safety counter all surface as kv.* through
// the process metrics registry.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "kv/repl.h"
#include "kv/store.h"
#include "kv/wal.h"
#include "net/udp.h"
#include "rpc/client.h"
#include "rpc/svc.h"

namespace tempo::kv {

// Client-facing program (generic tier).
constexpr std::uint32_t kKvProgram = 0x20000778;
constexpr std::uint32_t kKvVersion = 1;
constexpr std::uint32_t kKvProcPut = 1;
constexpr std::uint32_t kKvProcGet = 2;
constexpr std::uint32_t kKvProcDel = 3;

class KvService final : public ShipSource {
 public:
  struct Options {
    std::uint32_t shards = 1;
    // Directory for per-shard WAL files ("kv-shard-N.wal").  Empty =
    // volatile store, no durability (benchmarks, replicas).
    std::string wal_dir;
    Wal::Options wal;
    // Bound on the retained log tail per shard (records kept for the
    // replicator after apply).  When the bound is hit the oldest are
    // dropped — a replica further behind than this needs a full resync,
    // which is out of scope here (see src/kv/README.md).
    std::size_t tail_max_records = 1u << 16;
  };

  struct RecoveryInfo {
    std::uint64_t records = 0;          // replayed WAL records (all shards)
    std::uint64_t truncated_bytes = 0;  // torn tail bytes cut (all shards)
  };

  // Opens (and recovers, when wal_dir is set) the per-shard stores.
  static Result<std::unique_ptr<KvService>> open(Options opts,
                                                 RecoveryInfo* info = nullptr);
  ~KvService() override = default;
  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  // ---- local API (also what the RPC handlers call) ----
  Result<std::uint64_t> put(std::string_view key, std::string_view value);
  Result<std::uint64_t> del(std::string_view key);
  std::optional<std::string> get(std::string_view key) const;

  std::uint32_t shard_of(std::string_view key) const;
  MvccStore& store(std::uint32_t shard) { return shards_[shard]->store; }
  const MvccStore& store(std::uint32_t shard) const {
    return shards_[shard]->store;
  }
  const Wal* wal(std::uint32_t shard) const {
    return shards_[shard]->wal.get();
  }
  // Version-chain GC across every shard; returns versions reclaimed.
  std::size_t gc();
  // Order-independent across keys, shard-order dependent: matches
  // KvReplicaSink::digest() for an identical replica.
  std::uint64_t digest() const;

  // ---- client-facing RPC program (generic tier) ----
  void install(rpc::SvcRegistry& registry);

  // ---- ShipSource (what KvReplicator pulls) ----
  std::uint32_t shard_count() const override {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint64_t shippable_seq(std::uint32_t shard) const override;
  std::vector<LogRecord> fetch_since(std::uint32_t shard, std::uint64_t from,
                                     std::size_t max_words) const override;
  void acked(std::uint32_t shard, std::uint64_t seq) override;

  const common::LatencyHistogram& commit_latency() const {
    return commit_hist_;
  }

 private:
  struct Shard {
    MvccStore store;
    std::unique_ptr<Wal> wal;
    mutable std::mutex apply_mu;
    std::condition_variable apply_cv;
    // Applied records not yet acknowledged by the replica, seq order.
    std::deque<LogRecord> tail TEMPO_GUARDED_BY(apply_mu);
    std::uint64_t tail_dropped TEMPO_GUARDED_BY(apply_mu) = 0;
  };

  KvService() = default;
  Result<std::uint64_t> commit(LogRecord r);
  // Returns the sequence the record was applied at.  Takes the record
  // by value: commit moves it in, and it ends up in the retained tail.
  std::uint64_t apply_in_order(Shard& shard, LogRecord rec);

  Options opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable common::Counter puts_, dels_, gets_;
  common::LatencyHistogram commit_hist_;
  common::MetricsRegistry::SourceHandle metrics_source_;  // last member
};

// Client for the string-heavy KV program over UDP — the generic
// layered tier (owns its socket; not thread-safe, one per caller).
class KvClient {
 public:
  explicit KvClient(net::Addr server, rpc::CallOptions opts = {});

  bool ok() const { return sock_.ok(); }
  Result<std::uint64_t> put(std::string_view key, std::string_view value);
  Result<std::uint64_t> del(std::string_view key);
  // nullopt = key absent (or deleted).
  Result<std::optional<std::string>> get(std::string_view key);

 private:
  net::UdpSocket sock_;
  rpc::UdpClient client_;
};

}  // namespace tempo::kv
