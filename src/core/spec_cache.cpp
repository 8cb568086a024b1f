#include "core/spec_cache.h"

#include "pe/verify.h"

namespace tempo::core {

namespace {

inline void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

// Paranoid-mode (TEMPO_PLAN_VERIFY=2) re-verification of all four plans
// at a publish boundary.  The plans were verified at build; this
// tripwire exists so a plan corrupted between build and publish can
// never reach the hit path.  Ok() in every other mode.
Status paranoid_reverify(const SpecializedInterface& iface) {
  if (pe::verify_mode() != pe::VerifyMode::kParanoid) return Status::ok();
  const struct {
    const char* name;
    const pe::Plan& plan;
  } plans[] = {{"encode_call", iface.encode_call_plan()},
               {"decode_reply", iface.decode_reply_plan()},
               {"decode_args", iface.decode_args_plan()},
               {"encode_results", iface.encode_results_plan()}};
  for (const auto& p : plans) {
    const pe::VerifyResult res = pe::verify_plan(p.plan);
    if (!res.ok()) {
      return out_of_range("paranoid re-verify rejected " +
                          std::string(p.name) + " at cache publish: " +
                          res.to_string());
    }
  }
  return Status::ok();
}

// SpecKey{prog, vers, proc, config...} == k, without building the key.
bool key_matches(const SpecKey& k, std::uint32_t prog, std::uint32_t vers,
                 std::uint32_t proc, const SpecConfig& config) {
  return k.prog == prog && k.vers == vers && k.proc == proc &&
         k.unroll_factor == config.unroll_factor &&
         k.buffer_bytes == config.buffer_bytes &&
         k.arg_counts == config.arg_counts &&
         k.res_counts == config.res_counts;
}

}  // namespace

std::size_t SpecKeyHash::operator()(const SpecKey& k) const {
  std::size_t seed = 0;
  hash_combine(seed, k.prog);
  hash_combine(seed, k.vers);
  hash_combine(seed, k.proc);
  hash_combine(seed, k.unroll_factor);
  hash_combine(seed, k.buffer_bytes);
  hash_combine(seed, k.arg_counts.size());
  for (auto c : k.arg_counts) hash_combine(seed, c);
  hash_combine(seed, k.res_counts.size());
  for (auto c : k.res_counts) hash_combine(seed, c);
  return seed;
}

SpecCache::SpecCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity == 0 ? 1 : capacity) {
  if (shards == 0) shards = 1;
  if (shards > capacity_) shards = capacity_;  // every shard gets >= 1 slot
  shards_.reserve(shards);
  // Distribute the capacity as evenly as possible; the first
  // (capacity % shards) shards take the remainder.
  const std::size_t base = capacity_ / shards;
  std::size_t leftover = capacity_ % shards;
  for (std::size_t i = 0; i < shards; ++i) {
    auto s = std::make_unique<Shard>();
    s->capacity = base + (leftover > 0 ? 1 : 0);
    if (leftover > 0) --leftover;
    shards_.push_back(std::move(s));
  }
  // stats() takes the shard locks itself, so the callback stays safe
  // against concurrent get_or_build traffic.  Counters sum across
  // multiple live caches; the gauges do too (total slots vs. used).
  metrics_source_ =
      common::metrics().add_source([this](common::MetricsSnapshot& snap) {
        const SpecCacheStats st = stats();
        snap.add_counter("spec_cache.hits", st.hits);
        snap.add_counter("spec_cache.misses", st.misses);
        snap.add_counter("spec_cache.evictions", st.evictions);
        snap.add_counter("spec_cache.build_failures", st.build_failures);
        snap.add_counter("spec_cache.hot_hits", st.hot_hits);
        snap.add_counter("spec_cache.jit_stubs", st.jit_stubs);
        snap.add_counter("spec_cache.verify_rejects", st.verify_rejects);
        snap.add_gauge("spec_cache.size", static_cast<std::int64_t>(size()));
        snap.add_gauge("spec_cache.capacity",
                       static_cast<std::int64_t>(capacity_));
      });
}

void SpecCache::Shard::touch_locked(Entry& e, const SpecKey& key) {
  if (!e.in_lru) return;
  lru.erase(e.lru_it);
  lru.push_front(key);
  e.lru_it = lru.begin();
}

void SpecCache::Shard::insert_lru_locked(const std::shared_ptr<Entry>& e,
                                         const SpecKey& key) {
  lru.push_front(key);
  e->lru_it = lru.begin();
  e->in_lru = true;
  while (lru.size() > capacity) {
    const SpecKey& victim = lru.back();
    auto it = map.find(victim);
    if (it != map.end()) map.erase(it);
    lru.pop_back();
    ++stats.evictions;
  }
}

Result<SpecHandle> SpecCache::get_or_build(const idl::ProcDef& proc,
                                           std::uint32_t prog,
                                           std::uint32_t vers,
                                           const SpecConfig& config) {
  // Lock-free fast path: one atomic load + key compare, made against
  // the config in place so a slot hit allocates nothing.  On the skewed
  // workloads real servers see (~99.99% one shape) this is the whole
  // lookup.  A stale slot is harmless — interfaces are immutable and
  // keyed, so a mismatch just falls through to the shard.  One hit in
  // kHotRefreshPeriod falls through ON PURPOSE: the locked path
  // touches the key's shard LRU entry, so the hottest key never decays
  // into the shard's eviction victim while it is being served from the
  // slot (each lookup still counts in exactly one hit counter).
  std::shared_ptr<const HotSlot> refresh_hot;
  if (auto hot = hot_.load(std::memory_order_acquire);
      hot && key_matches(hot->key, prog, vers, proc.number, config)) {
    const std::int64_t tick =
        hot_ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (tick % kHotRefreshPeriod != 0) {
      hot_hits_.fetch_add(1, std::memory_order_relaxed);
      return hot->iface;
    }
    // Refresh tick: fall through (counted as a shard hit, not a hot
    // hit, so every lookup lands in exactly one counter).  Keep the
    // handle: if the key was meanwhile evicted, the locked path
    // reinserts it instead of rebuilding.
    refresh_hot = std::move(hot);
  }

  SpecKey key{prog,
              vers,
              proc.number,
              config.arg_counts,
              config.res_counts,
              config.unroll_factor,
              config.buffer_bytes};

  Shard& shard = shard_for(SpecKeyHash{}(key));

  std::shared_ptr<Entry> entry;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      entry = it->second;
      ++shard.stats.hits;
      if (!entry->ready) {
        // Another thread is building this key: wait, do not rebuild.
        shard.ready_cv.wait(lock, [&] { return entry->ready; });
      }
      // The entry may have been evicted from the map while we waited;
      // the shared_ptr keeps the payload valid either way.  Touch the
      // LRU for negative entries too: a hot ineligible shape must stay
      // cached, or its eviction would let repeated requests re-run the
      // pipeline.
      auto relocated = shard.map.find(key);
      if (relocated != shard.map.end() && relocated->second == entry) {
        shard.touch_locked(*entry, key);
      }
      // Shard-local hit-count epoch: every kHotPublishEpoch locked hits
      // (hot-slot hits never reach this counter, so a published entry
      // stops accumulating) the entry claims the hot slot.  Negative
      // entries never publish — the slot exists to skip locks on the
      // overwhelmingly-hit GOOD shape, not to fast-path errors.
      const bool publish =
          entry->iface && (++entry->locked_hits % kHotPublishEpoch == 0);
      SpecHandle iface = entry->iface;
      Status error = entry->error;
      lock.unlock();
      // Hot-slot publish boundary: paranoid mode re-verifies before the
      // interface becomes reachable lock-free; a failure just skips
      // publication (lookups keep the locked path, which stays correct).
      if (publish && paranoid_reverify(*iface).is_ok()) {
        hot_.store(std::make_shared<const HotSlot>(HotSlot{key, iface}),
                   std::memory_order_release);
      }
      if (iface) return iface;
      return error;
    }
    // A refresh tick that raced an eviction: the published handle is
    // still valid (interfaces are immutable), so reinsert it — the
    // whole point of the refresh is that the hot key must never pay a
    // pipeline rebuild.  No waiter can exist (the entry is born ready).
    if (refresh_hot) {
      ++shard.stats.hits;
      entry = std::make_shared<Entry>();
      entry->iface = refresh_hot->iface;
      entry->ready = true;
      shard.map.emplace(key, entry);
      shard.insert_lru_locked(entry, key);
      return entry->iface;
    }
    // Miss: claim the build while holding the shard lock.
    ++shard.stats.misses;
    entry = std::make_shared<Entry>();
    shard.map.emplace(key, entry);
  }

  // Build outside the lock — this is the expensive pipeline run.
  auto built = SpecializedInterface::build(proc, prog, vers, config);

  // Ready-entry publish boundary: in paranoid mode, re-verify outside
  // the lock before the entry becomes visible to other threads.
  Status admit = Status::ok();
  if (built.is_ok()) admit = paranoid_reverify(*built);

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (built.is_ok() && admit.is_ok()) {
      entry->iface =
          std::make_shared<const SpecializedInterface>(std::move(*built));
      shard.stats.jit_stubs += entry->iface->jit_stub_count();
      shard.insert_lru_locked(entry, key);
    } else {
      entry->error = built.is_ok() ? admit : built.status();
      ++shard.stats.build_failures;
      // The admission pass reports verifier rejections as kOutOfRange
      // (see pe::verify_admit); account them separately — a nonzero
      // spec_cache.verify_rejects means the specializer emitted a plan
      // whose declared contract its own ops violate, which is a bug,
      // not a merely-ineligible shape.
      if (entry->error.code() == StatusCode::kOutOfRange) {
        ++shard.stats.verify_rejects;
      }
      // Negative entries take an LRU slot too: repeated requests for an
      // ineligible shape must not re-run the pipeline, but an adversary
      // minting distinct ineligible keys must not grow the map
      // unboundedly either.
      shard.insert_lru_locked(entry, key);
    }
    entry->ready = true;
  }
  shard.ready_cv.notify_all();

  if (entry->iface) return entry->iface;
  return entry->error;
}

SpecCacheStats SpecCache::stats() const {
  SpecCacheStats total;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total.hits += s->stats.hits;
    total.misses += s->stats.misses;
    total.evictions += s->stats.evictions;
    total.build_failures += s->stats.build_failures;
    total.jit_stubs += s->stats.jit_stubs;
    total.verify_rejects += s->stats.verify_rejects;
  }
  // Hot-slot hits bypass the shards entirely; fold them in so `hits`
  // keeps meaning "every lookup served without a build".
  total.hot_hits = hot_hits_.load(std::memory_order_relaxed);
  total.hits += total.hot_hits;
  return total;
}

std::size_t SpecCache::size() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->lru.size();
  }
  return total;
}

SpecCacheStats SpecCache::shard_stats(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->stats;
}

std::size_t SpecCache::shard_size(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->lru.size();
}

}  // namespace tempo::core
