#include "kv/service.h"

#include <functional>
#include <utility>

#include "xdr/primitives.h"

namespace tempo::kv {

Result<std::unique_ptr<KvService>> KvService::open(Options opts,
                                                   RecoveryInfo* info) {
  if (opts.shards == 0) opts.shards = 1;
  auto svc = std::unique_ptr<KvService>(new KvService());
  svc->opts_ = opts;
  if (info) *info = RecoveryInfo{};
  for (std::uint32_t i = 0; i < opts.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    if (!opts.wal_dir.empty()) {
      Shard* s = shard.get();
      const std::size_t tail_max = opts.tail_max_records;
      WalRecovery rec;
      auto wal = Wal::open(
          opts.wal_dir + "/kv-shard-" + std::to_string(i) + ".wal", opts.wal,
          [s, tail_max](std::uint64_t seq, ByteSpan payload) {
            auto r = decode_wal_payload(seq, payload);
            if (!r.is_ok()) return;  // CRC passed but payload malformed
            if (r->op == KvOp::kDel) {
              s->store.apply_del(seq, r->key);
            } else {
              s->store.apply_put(seq, r->key, r->value);
            }
            // Rebuild the retained tail so a lagging replica can still
            // be served after a primary restart.  (Recovery is
            // single-threaded; the lock keeps the annotated contract.)
            std::lock_guard<std::mutex> lock(s->apply_mu);
            s->tail.push_back(std::move(*r));
            while (s->tail.size() > tail_max) {
              s->tail.pop_front();
              ++s->tail_dropped;
            }
          },
          &rec);
      if (!wal.is_ok()) return wal.status();
      shard->wal = std::move(*wal);
      if (info) {
        info->records += rec.records;
        info->truncated_bytes += rec.truncated_bytes;
      }
    }
    svc->shards_.push_back(std::move(shard));
  }
  auto* raw = svc.get();
  svc->metrics_source_ =
      common::metrics().add_source([raw](common::MetricsSnapshot& snap) {
        snap.add_counter("kv.puts", raw->puts_.value());
        snap.add_counter("kv.dels", raw->dels_.value());
        snap.add_counter("kv.gets", raw->gets_.value());
        snap.merge_histogram("kv.commit_latency_ns",
                             raw->commit_hist_.snapshot());
        std::int64_t keys = 0, versions = 0, last = 0, dup = 0, gc = 0;
        std::int64_t wal_records = 0, wal_fsyncs = 0, wal_batched = 0;
        std::int64_t wal_bytes = 0, tail_records = 0, tail_dropped = 0;
        for (const auto& sh : raw->shards_) {
          keys += static_cast<std::int64_t>(sh->store.key_count());
          versions += static_cast<std::int64_t>(sh->store.version_count());
          last += static_cast<std::int64_t>(sh->store.last_applied());
          dup += sh->store.stats().duplicate_applies.load(
              std::memory_order_relaxed);
          gc += sh->store.stats().gc_reclaimed.load(
              std::memory_order_relaxed);
          if (sh->wal) {
            const WalStats& ws = sh->wal->stats();
            wal_records += ws.records.load(std::memory_order_relaxed);
            wal_fsyncs += ws.fsyncs.load(std::memory_order_relaxed);
            wal_batched += ws.batched.load(std::memory_order_relaxed);
            wal_bytes += ws.bytes.load(std::memory_order_relaxed);
          }
          std::lock_guard<std::mutex> lock(sh->apply_mu);
          tail_records += static_cast<std::int64_t>(sh->tail.size());
          tail_dropped += static_cast<std::int64_t>(sh->tail_dropped);
        }
        snap.add_gauge("kv.keys", keys);
        snap.add_gauge("kv.versions", versions);
        snap.add_gauge("kv.last_applied", last);
        snap.add_gauge("kv.tail_records", tail_records);
        snap.add_counter("kv.duplicate_applies", dup);
        snap.add_counter("kv.gc_reclaimed", gc);
        snap.add_counter("kv.tail_dropped", tail_dropped);
        snap.add_counter("kv.wal_records", wal_records);
        snap.add_counter("kv.wal_fsyncs", wal_fsyncs);
        snap.add_counter("kv.wal_batched", wal_batched);
        snap.add_counter("kv.wal_bytes", wal_bytes);
      });
  return svc;
}

std::uint32_t KvService::shard_of(std::string_view key) const {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(key) %
                                    shards_.size());
}

Result<std::uint64_t> KvService::put(std::string_view key,
                                     std::string_view value) {
  if (key.empty() || key.size() > kMaxKeyBytes) {
    return out_of_range("kv: bad key length");
  }
  if (value.size() > kMaxValueBytes) {
    return out_of_range("kv: bad value length");
  }
  puts_.inc();
  LogRecord r;
  r.op = KvOp::kPut;
  r.key = std::string(key);
  r.value = std::string(value);
  return commit(std::move(r));
}

Result<std::uint64_t> KvService::del(std::string_view key) {
  if (key.empty() || key.size() > kMaxKeyBytes) {
    return out_of_range("kv: bad key length");
  }
  dels_.inc();
  LogRecord r;
  r.op = KvOp::kDel;
  r.key = std::string(key);
  return commit(std::move(r));
}

Result<std::uint64_t> KvService::commit(LogRecord r) {
  Shard& shard = *shards_[shard_of(r.key)];
  // TEMPO_METRICS=0 no-ops every record path, here included.
  const bool timed = common::metrics_enabled();
  const std::int64_t t0 = timed ? common::monotonic_ns() : 0;
  if (shard.wal) {
    auto seq = shard.wal->commit(encode_wal_payload(r));
    if (!seq.is_ok()) return seq.status();
    r.seq = *seq;
  } else {
    // Volatile mode: sequence is assigned under the apply lock below.
    r.seq = 0;
  }
  const std::uint64_t seq = apply_in_order(shard, std::move(r));
  if (timed) commit_hist_.record(common::monotonic_ns() - t0);
  return seq;
}

std::uint64_t KvService::apply_in_order(Shard& shard, LogRecord rec) {
  std::unique_lock<std::mutex> lock(shard.apply_mu);
  if (rec.seq == 0) {
    rec.seq = shard.store.last_applied() + 1;
  } else {
    // Group commit wakes a whole batch at once; line its members up so
    // the store sees sequences strictly in order.
    shard.apply_cv.wait(lock, [&] {
      return shard.store.last_applied() + 1 >= rec.seq;
    });
  }
  if (rec.op == KvOp::kDel) {
    shard.store.apply_del(rec.seq, rec.key);
  } else {
    shard.store.apply_put(rec.seq, rec.key, rec.value);
  }
  const std::uint64_t seq = rec.seq;
  shard.tail.push_back(std::move(rec));
  while (shard.tail.size() > opts_.tail_max_records) {
    shard.tail.pop_front();
    ++shard.tail_dropped;
  }
  shard.apply_cv.notify_all();
  return seq;
}

std::optional<std::string> KvService::get(std::string_view key) const {
  gets_.inc();
  return shards_[shard_of(key)]->store.get_latest(key);
}

std::size_t KvService::gc() {
  std::size_t total = 0;
  for (auto& sh : shards_) total += sh->store.gc();
  return total;
}

std::uint64_t KvService::digest() const {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& sh : shards_) {
    h = (h ^ sh->store.digest()) * 1099511628211ull;
  }
  return h;
}

std::uint64_t KvService::shippable_seq(std::uint32_t shard) const {
  return shards_[shard]->store.last_applied();
}

std::vector<LogRecord> KvService::fetch_since(std::uint32_t shard,
                                              std::uint64_t from,
                                              std::size_t max_words) const {
  std::vector<LogRecord> out;
  const Shard& sh = *shards_[shard];
  std::lock_guard<std::mutex> lock(sh.apply_mu);
  std::size_t words = 0;
  for (const LogRecord& r : sh.tail) {
    if (r.seq <= from) continue;
    const std::size_t cost = record_ship_words(r);
    if (words + cost > max_words) break;
    words += cost;
    out.push_back(r);
  }
  return out;
}

void KvService::acked(std::uint32_t shard, std::uint64_t seq) {
  Shard& sh = *shards_[shard];
  std::lock_guard<std::mutex> lock(sh.apply_mu);
  while (!sh.tail.empty() && sh.tail.front().seq <= seq) {
    sh.tail.pop_front();
  }
}

void KvService::install(rpc::SvcRegistry& registry) {
  registry.register_proc(
      kKvProgram, kKvVersion, kKvProcPut,
      [this](xdr::XdrStream& in, xdr::XdrStream& out) {
        std::string key;
        Bytes value;
        if (!xdr::xdr_string(in, key,
                             static_cast<std::uint32_t>(kMaxKeyBytes)) ||
            !xdr::xdr_bytes(in, value,
                            static_cast<std::uint32_t>(kMaxValueBytes))) {
          return false;
        }
        auto seq = put(key, std::string_view(
                                reinterpret_cast<const char*>(value.data()),
                                value.size()));
        if (!seq.is_ok()) return false;
        return xdr::xdr_u_hyper(out, *seq);
      });
  registry.register_proc(
      kKvProgram, kKvVersion, kKvProcGet,
      [this](xdr::XdrStream& in, xdr::XdrStream& out) {
        std::string key;
        if (!xdr::xdr_string(in, key,
                             static_cast<std::uint32_t>(kMaxKeyBytes))) {
          return false;
        }
        auto value = get(key);
        bool found = value.has_value();
        Bytes bytes;
        if (found) bytes.assign(value->begin(), value->end());
        return xdr::xdr_bool(out, found) &&
               xdr::xdr_bytes(out, bytes,
                              static_cast<std::uint32_t>(kMaxValueBytes));
      });
  registry.register_proc(
      kKvProgram, kKvVersion, kKvProcDel,
      [this](xdr::XdrStream& in, xdr::XdrStream& out) {
        std::string key;
        if (!xdr::xdr_string(in, key,
                             static_cast<std::uint32_t>(kMaxKeyBytes))) {
          return false;
        }
        auto seq = del(key);
        if (!seq.is_ok()) return false;
        return xdr::xdr_u_hyper(out, *seq);
      });
}

// -------------------------------------------------------------- client

KvClient::KvClient(net::Addr server, rpc::CallOptions opts)
    : client_(sock_, server, kKvProgram, kKvVersion, opts) {}

Result<std::uint64_t> KvClient::put(std::string_view key,
                                    std::string_view value) {
  std::string k(key);
  Bytes v(value.begin(), value.end());
  std::uint64_t seq = 0;
  Status st = client_.call(
      kKvProcPut,
      [&](xdr::XdrStream& x) {
        return xdr::xdr_string(x, k,
                               static_cast<std::uint32_t>(kMaxKeyBytes)) &&
               xdr::xdr_bytes(x, v,
                              static_cast<std::uint32_t>(kMaxValueBytes));
      },
      [&](xdr::XdrStream& x) { return xdr::xdr_u_hyper(x, seq); });
  if (!st.is_ok()) return st;
  return seq;
}

Result<std::uint64_t> KvClient::del(std::string_view key) {
  std::string k(key);
  std::uint64_t seq = 0;
  Status st = client_.call(
      kKvProcDel,
      [&](xdr::XdrStream& x) {
        return xdr::xdr_string(x, k,
                               static_cast<std::uint32_t>(kMaxKeyBytes));
      },
      [&](xdr::XdrStream& x) { return xdr::xdr_u_hyper(x, seq); });
  if (!st.is_ok()) return st;
  return seq;
}

Result<std::optional<std::string>> KvClient::get(std::string_view key) {
  std::string k(key);
  bool found = false;
  Bytes bytes;
  Status st = client_.call(
      kKvProcGet,
      [&](xdr::XdrStream& x) {
        return xdr::xdr_string(x, k,
                               static_cast<std::uint32_t>(kMaxKeyBytes));
      },
      [&](xdr::XdrStream& x) {
        return xdr::xdr_bool(x, found) &&
               xdr::xdr_bytes(x, bytes,
                              static_cast<std::uint32_t>(kMaxValueBytes));
      });
  if (!st.is_ok()) return st;
  if (!found) return std::optional<std::string>();
  return std::optional<std::string>(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

}  // namespace tempo::kv
