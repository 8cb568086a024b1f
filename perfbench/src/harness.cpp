#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <thread>

namespace perfbench {

std::uint32_t clamp_ns(std::int64_t ns) {
  if (ns < 0) return 0;
  if (ns > 0xFFFFFFFFll) return 0xFFFFFFFFu;
  return static_cast<std::uint32_t>(ns);
}

namespace {

double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

tempo::rpc::EventServerRuntimeConfig server_config(bool udp, bool tcp,
                                                   int workers, bool traced) {
  tempo::rpc::EventServerRuntimeConfig cfg;
  cfg.reactors = 1;
  cfg.workers = workers;
  cfg.enable_udp = udp;
  cfg.enable_tcp = tcp;
  cfg.trace_sample = traced ? 1 : 0;
  // Large enough that the ring keeps a representative sample of the
  // window, not only its last few hundred requests.
  cfg.trace_ring = traced ? std::size_t{1} << 16 : cfg.trace_ring;
  return cfg;
}

void read_runtime_layers(const tempo::rpc::EventServerRuntime& rt,
                         LayerReading& out) {
  const auto& s = rt.stats();
  auto& c = out.counters;
  c["rpc.udp_datagrams"] = static_cast<double>(s.udp_datagrams.load());
  c["rpc.udp_batches"] = static_cast<double>(s.udp_batches.load());
  c["rpc.tcp_calls"] = static_cast<double>(s.tcp_calls.load());
  c["rpc.overload_drops"] = static_cast<double>(s.overload_drops.load());
  c["rpc.reply_send_failures"] =
      static_cast<double>(s.reply_send_failures.load());
  c["rpc.conn_resets"] = static_cast<double>(s.conn_resets.load());
  c["rpc.work_steals"] = static_cast<double>(s.work_steals.load());
  c["net.uring_enters"] = static_cast<double>(rt.uring_enter_calls());
  const auto arena = rt.arena_stats();
  c["arena.hits"] = static_cast<double>(arena.hits);
  c["arena.misses"] = static_cast<double>(arena.misses);
  const auto lat = rt.latency_snapshot();
  auto e2e = lat.udp_e2e;
  e2e.merge(lat.tcp_e2e);
  out.histograms["rpc.e2e"] = e2e;
  out.histograms["rpc.queue"] = lat.queue;
  out.histograms["rpc.handle"] = lat.handle;
}

void warm_up(Workload& w, std::int64_t calls_per_client) {
  const std::atomic<bool> never{false};
  std::vector<std::unique_ptr<ClientBooks>> books;
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients(); ++c) {
    books.push_back(std::make_unique<ClientBooks>());
    threads.emplace_back([&w, &never, &books, c, calls_per_client] {
      w.run_client(c, *books[static_cast<std::size_t>(c)], never,
                   calls_per_client);
    });
  }
  for (auto& t : threads) t.join();
}

WindowResult run_window(Workload& w, double seconds) {
  using clock = std::chrono::steady_clock;
  WindowResult r;
  const int n = w.clients();
  // Room for every sample a fast client could take, so no vector grows
  // (and copies) inside the window.  Untouched capacity costs no memory.
  const auto reserve = static_cast<std::size_t>(seconds * 400'000) + 4096;
  std::vector<std::unique_ptr<ClientBooks>> books;
  for (int c = 0; c < n; ++c) {
    auto b = std::make_unique<ClientBooks>();
    b->rtt_ns.reserve(reserve);
    b->put_rtt_ns.reserve(reserve);
    b->get_rtt_ns.reserve(reserve);
    books.push_back(std::move(b));
  }

  std::atomic<bool> go{false}, stop{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ClientBooks& b = *books[static_cast<std::size_t>(c)];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const double t0 = thread_cpu_seconds();
      w.run_client(c, b, stop, 0);
      b.cpu_ns = static_cast<std::int64_t>((thread_cpu_seconds() - t0) * 1e9);
    });
  }
  while (ready.load() < n) std::this_thread::yield();

  r.before = w.read_layers();
  w.arm_fault();
  const auto t0 = clock::now();
  const double cpu0 = process_cpu_seconds();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  r.wall_s = std::chrono::duration<double>(clock::now() - t0).count();
  r.process_cpu_s = process_cpu_seconds() - cpu0;
  r.after = w.read_layers();

  std::vector<std::uint32_t> rtt, put_rtt, get_rtt;
  for (const auto& b : books) {
    r.completed += b->completed;
    r.attempted += b->attempted;
    r.failed += b->failed;
    r.mismatched += b->mismatched;
    r.puts += b->puts;
    r.client_cpu_s += static_cast<double>(b->cpu_ns) * 1e-9;
    if (!b->first_error.empty()) r.errors.push_back(b->first_error);
    rtt.insert(rtt.end(), b->rtt_ns.begin(), b->rtt_ns.end());
    put_rtt.insert(put_rtt.end(), b->put_rtt_ns.begin(), b->put_rtt_ns.end());
    get_rtt.insert(get_rtt.end(), b->get_rtt_ns.begin(), b->get_rtt_ns.end());
  }
  r.rtt_samples = static_cast<std::int64_t>(rtt.size());
  r.rtt_p50_us = percentile_us(rtt, 0.50);
  r.rtt_p90_us = percentile_us(rtt, 0.90);
  r.rtt_p99_us = percentile_us(std::move(rtt), 0.99);
  r.put_rtt_p50_us = percentile_us(std::move(put_rtt), 0.50);
  r.get_rtt_p50_us = percentile_us(std::move(get_rtt), 0.50);
  return r;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double percentile_us(std::vector<std::uint32_t> v, double q) {
  return static_cast<double>(quantile(std::move(v), q)) / 1000.0;
}

tempo::common::HistogramSnapshot hist_delta(
    const tempo::common::HistogramSnapshot& after,
    const tempo::common::HistogramSnapshot& before) {
  tempo::common::HistogramSnapshot d = after;
  for (std::size_t i = 0; i < d.counts.size() && i < before.counts.size(); ++i) {
    d.counts[i] -= std::min(d.counts[i], before.counts[i]);
  }
  return d;
}

}  // namespace perfbench
