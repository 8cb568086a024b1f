// kv_mixed: kv::KvClient over UDP against a WAL-backed kv::KvService
// (fsync off) on the reactor runtime.  Two clients, each on its own
// partition of keys with uniform access, run a seeded mix of PUT, GET
// and DEL; each keeps a shadow of its partition and checks every GET
// against it.  Client 0 also calls KvService::gc() on a fixed op
// schedule, as an operator would, so memory stays bounded.  A planted
// refusal sends client 0's next PUT with an empty key, which the
// service rejects.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "harness.h"
#include "kv/service.h"

namespace perfbench {
namespace {

namespace kv = tempo::kv;
namespace rpc = tempo::rpc;

constexpr int kClients = 2;
// Two workers, so the two clients' writes reach the WAL's group commit
// and the in-order apply at the same time and contend there.
constexpr int kWorkers = 2;
constexpr std::uint32_t kKeysPerClient = 4096;
constexpr std::size_t kOpSeqLen = 1 << 16;  // ops per client, then repeats
constexpr std::size_t kBlobBytes = 1 << 16;  // values are slices of this
constexpr std::uint32_t kMinValue = 16;
constexpr std::uint32_t kMaxValue = 256;
constexpr std::int64_t kGcEvery = 4096;  // client 0 ops between gc() calls

enum class OpKind : std::uint8_t { kPut, kGet, kDel };

// A value is blob[off, off + len).
struct ValueRef {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

struct KvOp {
  OpKind kind = OpKind::kGet;
  std::uint32_t key = 0;
  ValueRef value;  // PUT only
};

struct KvInputs {
  std::string blob;
  std::vector<std::vector<ValueRef>> initial;  // [client][key]
  std::vector<std::vector<KvOp>> ops;          // [client][i]
  std::uint64_t hash = 0;
};

ValueRef random_value(SeedRng& rng, InputHash& hash) {
  ValueRef v;
  v.len = kMinValue + rng.below(kMaxValue - kMinValue + 1);
  v.off = rng.below(static_cast<std::uint32_t>(kBlobBytes) - v.len);
  hash.add(v.off);
  hash.add(v.len);
  return v;
}

// Values of the preload rounds before the last: any fixed slice of the
// seeded blob will do.
ValueRef filler_value(std::uint32_t key, std::size_t round) {
  ValueRef v;
  v.len = kMinValue + (key + static_cast<std::uint32_t>(round)) % (kMaxValue - kMinValue + 1);
  v.off = static_cast<std::uint32_t>((key * 7919u + round * 104729u) %
                                     (kBlobBytes - kMaxValue));
  return v;
}

KvInputs make_kv_inputs(std::uint64_t seed) {
  KvInputs in;
  InputHash hash;
  SeedRng blob_rng(seed * 0x100000001B3ull + 0xB10Bull);
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  in.blob.resize(kBlobBytes);
  for (char& ch : in.blob) {
    ch = kAlphabet[blob_rng.below(sizeof(kAlphabet) - 1)];
    hash.add(static_cast<std::uint8_t>(ch));
  }
  for (int c = 0; c < kClients; ++c) {
    SeedRng rng(seed * 0x100000001B3ull + 0x4B5ull + static_cast<std::uint64_t>(c));
    std::vector<ValueRef> initial(kKeysPerClient);
    for (auto& v : initial) v = random_value(rng, hash);
    in.initial.push_back(std::move(initial));
    std::vector<KvOp> ops(kOpSeqLen);
    for (auto& op : ops) {
      // 50% PUT, 45% GET, 5% DEL over a uniformly drawn key.
      const std::uint32_t r = rng.below(100);
      op.kind = r < 50 ? OpKind::kPut : r < 95 ? OpKind::kGet : OpKind::kDel;
      op.key = rng.below(kKeysPerClient);
      hash.add(static_cast<std::uint64_t>(op.kind) << 32 | op.key);
      if (op.kind == OpKind::kPut) op.value = random_value(rng, hash);
    }
    in.ops.push_back(std::move(ops));
  }
  in.hash = hash.h;
  return in;
}

class KvMixed final : public Workload {
 public:
  explicit KvMixed(const WorkloadOptions& opt)
      : in_(make_kv_inputs(opt.seed)),
        inject_(opt.inject) {
    std::filesystem::create_directories(opt.workdir);
    std::string tmpl = opt.workdir + "/kv-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("cannot create a WAL directory under " +
                               opt.workdir);
    }
    dir_ = tmpl;
    kv::KvService::Options kopts;
    kopts.wal_dir = dir_;
    kopts.wal.fsync = false;  // fsync time measures the disk, not the program
    auto svc = kv::KvService::open(kopts);
    if (!svc.is_ok()) {
      throw std::runtime_error("KvService::open: " + svc.status().to_string());
    }
    svc_ = std::move(*svc);
    svc_->install(registry_);

    // Preload: write every key until the retained log tail is at its
    // cap, the steady state of a primary with no replica acking.  A
    // tail still filling up would make memory follow the run's write
    // count.  The last round writes the seeded initial values.
    const std::size_t rounds = std::max<std::size_t>(
        1, kopts.tail_max_records / (kClients * kKeysPerClient));
    for (int c = 0; c < kClients; ++c) {
      auto cl = std::make_unique<Client>();
      for (std::uint32_t k = 0; k < kKeysPerClient; ++k) {
        cl->keys.push_back("c" + std::to_string(c) + "/k" + std::to_string(k));
      }
      for (std::size_t round = 0; round < rounds; ++round) {
        for (std::uint32_t k = 0; k < kKeysPerClient; ++k) {
          const ValueRef ref = round + 1 == rounds
                                   ? in_.initial[static_cast<std::size_t>(c)][k]
                                   : filler_value(k, round);
          auto r = svc_->put(cl->keys[k], value(ref));
          if (!r.is_ok()) {
            throw std::runtime_error("preload put: " + r.status().to_string());
          }
        }
      }
      for (std::uint32_t k = 0; k < kKeysPerClient; ++k) {
        cl->shadow.push_back(
            Shadow{value(in_.initial[static_cast<std::size_t>(c)][k]), true, true});
      }
      clients_.push_back(std::move(cl));
    }
    svc_->gc();

    runtime_ = std::make_unique<rpc::EventServerRuntime>(
        registry_, server_config(/*udp=*/true, /*tcp=*/false, kWorkers,
                                 opt.traced));
    const tempo::Status st = runtime_->start();
    if (!st.is_ok()) {
      throw std::runtime_error("runtime start: " + st.to_string());
    }
    for (auto& cl : clients_) {
      cl->client = std::make_unique<kv::KvClient>(runtime_->udp_addr());
      if (!cl->client->ok()) throw std::runtime_error("kv client socket");
    }
  }

  ~KvMixed() override {
    for (auto& cl : clients_) cl->client.reset();
    runtime_.reset();
    svc_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  int clients() const override { return kClients; }

  void run_client(int c, ClientBooks& b, const std::atomic<bool>& stop,
                  std::int64_t limit) override {
    Client& cl = *clients_[static_cast<std::size_t>(c)];
    const auto& ops = in_.ops[static_cast<std::size_t>(c)];
    for (std::int64_t i = 0;
         (limit == 0 || i < limit) && !stop.load(std::memory_order_relaxed);
         ++i) {
      if (c == 0 && ++cl.ops_since_gc >= kGcEvery) {
        svc_->gc();
        cl.ops_since_gc = 0;
      }
      const KvOp& op = ops[cl.cursor++ % ops.size()];
      const bool refused = op.kind == OpKind::kPut && c == 0 &&
                           refuse_.load(std::memory_order_relaxed) &&
                           refuse_.exchange(false);
      static const std::string kRefusedKey;  // empty: the service rejects it
      const std::string& key = refused ? kRefusedKey : cl.keys[op.key];
      Shadow& sh = cl.shadow[op.key];
      ++b.attempted;
      switch (op.kind) {
        case OpKind::kPut: {
          const std::string_view v = value(op.value);
          const std::int64_t t0 = tempo::common::monotonic_ns();
          auto r = cl.client->put(key, v);
          const std::uint32_t rtt = clamp_ns(tempo::common::monotonic_ns() - t0);
          if (!r.is_ok()) {
            // The PUT may or may not have applied: stop checking the key
            // until a later write settles it.
            if (!refused) sh.known = false;
            b.fail("kv_mixed put: " + r.status().to_string());
            continue;
          }
          sh = Shadow{v, true, true};
          b.put_rtt_ns.push_back(rtt);
          b.rtt_ns.push_back(rtt);
          ++b.puts;
          break;
        }
        case OpKind::kDel: {
          const std::int64_t t0 = tempo::common::monotonic_ns();
          auto r = cl.client->del(key);
          const std::uint32_t rtt = clamp_ns(tempo::common::monotonic_ns() - t0);
          if (!r.is_ok()) {
            sh.known = false;
            b.fail("kv_mixed del: " + r.status().to_string());
            continue;
          }
          sh = Shadow{{}, false, true};
          b.rtt_ns.push_back(rtt);
          break;
        }
        case OpKind::kGet: {
          if (c == 0 && corrupt_.load(std::memory_order_relaxed) &&
              corrupt_.exchange(false)) {
            sh = Shadow{"planted shadow mismatch", true, true};
          }
          const std::int64_t t0 = tempo::common::monotonic_ns();
          auto r = cl.client->get(key);
          const std::uint32_t rtt = clamp_ns(tempo::common::monotonic_ns() - t0);
          if (!r.is_ok()) {
            b.fail("kv_mixed get: " + r.status().to_string());
            continue;
          }
          if (sh.known && !sh.matches(*r)) {
            b.mismatch("kv_mixed: GET " + key + " disagrees with the shadow");
            continue;
          }
          b.get_rtt_ns.push_back(rtt);
          b.rtt_ns.push_back(rtt);
          break;
        }
      }
      ++b.completed;
    }
  }

  LayerReading read_layers() const override {
    LayerReading r;
    read_runtime_layers(*runtime_, r);
    auto& c = r.counters;
    double records = 0, batched = 0, bytes = 0, reclaimed = 0;
    for (std::uint32_t s = 0; s < svc_->shard_count(); ++s) {
      const auto& ws = svc_->wal(s)->stats();
      records += static_cast<double>(ws.records.load());
      batched += static_cast<double>(ws.batched.load());
      bytes += static_cast<double>(ws.bytes.load());
      reclaimed += static_cast<double>(svc_->store(s).stats().gc_reclaimed.load());
    }
    c["kv.wal_records"] = records;
    c["kv.wal_batched"] = batched;
    c["kv.wal_bytes"] = bytes;
    c["kv.gc_reclaimed"] = reclaimed;
    r.histograms["kv.commit"] = svc_->commit_latency().snapshot();
    return r;
  }

  void arm_fault() override {
    if (inject_ == Inject::kShadow) corrupt_.store(true);
    if (inject_ == Inject::kRefuse) refuse_.store(true);
  }

  std::vector<std::string> check_books() override {
    std::vector<std::string> errors;
    std::int64_t wrong = 0;
    std::string first;
    for (const auto& cl : clients_) {
      for (std::uint32_t k = 0; k < kKeysPerClient; ++k) {
        const Shadow& sh = cl->shadow[k];
        if (sh.known && !sh.matches(svc_->get(cl->keys[k]))) {
          if (wrong++ == 0) first = cl->keys[k];
        }
      }
    }
    if (wrong > 0) {
      errors.push_back(std::to_string(wrong) +
                       " shadow keys disagree with KvService::get (first: " +
                       first + ")");
    }
    std::int64_t dup = 0;
    for (std::uint32_t s = 0; s < svc_->shard_count(); ++s) {
      dup += svc_->store(s).stats().duplicate_applies.load();
    }
    if (dup != 0) {
      errors.push_back(std::to_string(dup) + " duplicate applies");
    }
    return errors;
  }

  const rpc::EventServerRuntime& runtime() const override { return *runtime_; }

 private:
  // What a client believes one of its keys holds.
  struct Shadow {
    std::string_view value;
    bool present = false;
    bool known = true;  // false after a failed write left it uncertain
    bool matches(const std::optional<std::string>& got) const {
      return got.has_value() == present && (!present || *got == value);
    }
  };
  struct Client {
    std::unique_ptr<kv::KvClient> client;
    std::vector<std::string> keys;
    std::vector<Shadow> shadow;
    std::size_t cursor = 0;
    std::int64_t ops_since_gc = 0;
  };

  std::string_view value(ValueRef v) const {
    return std::string_view(in_.blob).substr(v.off, v.len);
  }

  KvInputs in_;
  Inject inject_;
  std::atomic<bool> corrupt_{false};
  std::atomic<bool> refuse_{false};
  std::string dir_;
  rpc::SvcRegistry registry_;
  std::unique_ptr<kv::KvService> svc_;
  std::unique_ptr<rpc::EventServerRuntime> runtime_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace

std::uint64_t kv_mixed_input_hash(std::uint64_t seed) {
  return make_kv_inputs(seed).hash;
}

std::unique_ptr<Workload> make_kv_mixed(const WorkloadOptions& opt) {
  return std::make_unique<KvMixed>(opt);
}

}  // namespace perfbench
