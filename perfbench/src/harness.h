// Shared pieces of the repository benchmark: seeded input generation,
// per-client books, the workload interface and the measurement window.
//
// A workload owns a server (an rpc::EventServerRuntime on loopback) and
// its clients.  Constructing it is the set-up the benchmark times: the
// runtime starts, every specialization the workload will need is built
// (and JIT-compiled), and each client runs a fixed warm-up.  The
// harness then drives the clients from their own threads for the timed
// window and reads the layer counters before and after.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "rpc/event_runtime.h"

namespace perfbench {

// splitmix64: a small, fully specified generator, so one seed gives the
// same inputs on every platform and standard library.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>((next() >> 32) * n >> 32);
  }

 private:
  std::uint64_t s_;
};

// FNV-1a over 64-bit words; fingerprints a generated input sequence.
struct InputHash {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

// What one client thread saw; only that thread touches it while the
// clients run.
struct ClientBooks {
  // Every call that completed or failed.  A failed call is recorded at
  // kFailedRttNs, so it misses every latency limit instead of leaving
  // the percentiles to the calls that did get an answer.
  std::vector<std::uint32_t> rtt_ns;
  std::vector<std::uint32_t> put_rtt_ns;  // kv_mixed only
  std::vector<std::uint32_t> get_rtt_ns;  // kv_mixed only
  std::int64_t attempted = 0;
  std::int64_t failed = 0;      // errors and timeouts: these fail the run
  std::int64_t mismatched = 0;  // wrong replies: these fail the run too
  std::int64_t puts = 0;        // kv_mixed only
  std::int64_t completed = 0;
  std::int64_t cpu_ns = 0;  // this thread's CPU time over the window
  std::string first_error;

  static constexpr std::uint32_t kFailedRttNs = 0xFFFFFFFFu;

  void fail(const std::string& what) {
    ++failed;
    rtt_ns.push_back(kFailedRttNs);
    if (first_error.empty()) first_error = what;
  }
  void mismatch(const std::string& what) {
    ++mismatched;
    if (first_error.empty()) first_error = what;
  }
};

std::uint32_t clamp_ns(std::int64_t ns);

// The benchmark's server: one reactor shard on loopback, `workers`
// workers, everything else at the runtime's defaults (backend auto,
// metrics on).  `traced` samples every request's stages.
tempo::rpc::EventServerRuntimeConfig server_config(bool udp, bool tcp,
                                                   int workers, bool traced);

// Counters of every layer, cumulative since the workload was built; the
// harness differences two reads to get the window's share.
struct LayerReading {
  std::map<std::string, double> counters;
  std::map<std::string, tempo::common::HistogramSnapshot> histograms;
};

// Adds the runtime's counters and histograms (rpc.*, net.*, arena.*).
void read_runtime_layers(const tempo::rpc::EventServerRuntime& rt,
                         LayerReading& out);

// Fault the benchmark plants on purpose to show its correctness gate
// catches it: a corrupted echo reply, a shadow-map entry that disagrees
// with the store, or a call the server refuses (answers with an error).
enum class Inject { kNone, kReply, kShadow, kRefuse };

struct WorkloadOptions {
  std::uint64_t seed = 0;
  bool traced = false;      // trace_sample = 1 on the runtime
  Inject inject = Inject::kNone;
  std::string workdir;      // working directory for files (kv_mixed's WAL)
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int clients() const = 0;
  // Runs client `c` until `stop` is set or, when limit > 0, until it
  // has completed `limit` calls.  Each call is recorded in `books`.
  virtual void run_client(int c, ClientBooks& books,
                          const std::atomic<bool>& stop,
                          std::int64_t limit) = 0;
  virtual LayerReading read_layers() const = 0;
  // Arms the planted fault (called as each window opens).
  virtual void arm_fault() = 0;
  // Final books check once the clients have stopped; returns every
  // disagreement found (empty = the books balance).
  virtual std::vector<std::string> check_books() = 0;
  // Milliseconds per specialization build timed during set-up.
  virtual std::vector<double> spec_build_ms() const { return {}; }
  virtual const tempo::rpc::EventServerRuntime& runtime() const = 0;
  // Compiled stubs the workload's specializations carry (0 when the
  // JIT is off or unused).
  virtual std::int64_t jit_stubs() const { return 0; }
};

std::unique_ptr<Workload> make_echo_bulk_udp(const WorkloadOptions& opt);
std::unique_ptr<Workload> make_echo_small_tcp(const WorkloadOptions& opt);
std::unique_ptr<Workload> make_kv_mixed(const WorkloadOptions& opt);

// Fingerprint of the inputs a seed gives a workload; generating twice
// must agree (checked in main).
std::uint64_t echo_bulk_udp_input_hash(std::uint64_t seed);
std::uint64_t echo_small_tcp_input_hash(std::uint64_t seed);
std::uint64_t kv_mixed_input_hash(std::uint64_t seed);

// Warm-up: each client runs this many calls inside set-up.
void warm_up(Workload& w, std::int64_t calls_per_client);

// One window's totals and round-trip percentiles.  The clients' raw
// samples are summarized and freed as the window closes, so memory
// does not grow with the number of calls a run makes.
struct WindowResult {
  double wall_s = 0;
  std::int64_t completed = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t mismatched = 0;
  std::int64_t puts = 0;         // kv_mixed only
  std::int64_t rtt_samples = 0;
  double process_cpu_s = 0;  // getrusage(RUSAGE_SELF), user + sys
  double client_cpu_s = 0;   // the client threads' own CPU time
  double rtt_p50_us = 0, rtt_p90_us = 0, rtt_p99_us = 0;
  double put_rtt_p50_us = 0, get_rtt_p50_us = 0;  // kv_mixed only
  LayerReading before, after;
  std::vector<std::string> errors;
};

// Runs every client for `seconds`.
WindowResult run_window(Workload& w, double seconds);

// ---- statistics ----------------------------------------------------------
double median(std::vector<double> v);
// Exact order statistic (nearest rank) of `v` at q in [0, 1]; 0 when
// `v` is empty.
template <typename T>
T quantile(std::vector<T> v, double q) {
  if (v.empty()) return T{};
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}
// The same of raw nanosecond samples, in microseconds.
double percentile_us(std::vector<std::uint32_t> v, double q);
tempo::common::HistogramSnapshot hist_delta(
    const tempo::common::HistogramSnapshot& after,
    const tempo::common::HistogramSnapshot& before);

}  // namespace perfbench
