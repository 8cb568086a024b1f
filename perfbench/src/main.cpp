// perfbench — the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--inject reply|shadow|refuse]
//
// Runs one workload against rpc::EventServerRuntime over loopback in
// this process, confined to one CPU (see confine_to_one_cpu).  The
// workload is set up once (timed) and then driven for the whole S
// seconds without a restart, so its long-run state (WAL and retained
// tail, version chains and gc, arena and caches) builds up as it would
// in service.  The S seconds are cut into windows of kWindowSeconds,
// each with freshly started client threads; an end-to-end timing
// metric is the slow decile over the windows (the level held in 9 of
// 10), so a program slowdown that reaches a tenth of the windows or
// more moves it, while the host's passing fast spells do not.  After
// the timed windows the workload is torn down and set up kSetups - 1
// more times, and setup_s is the median of all kSetups set-up times.
//
// With --trace 1 the run is split between an untraced pass and a pass
// with every request's stages traced, and the per-layer metrics are
// printed instead of the end-to-end ones: counters and histograms from
// the untraced pass, stage breakdowns from the traced one.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with each metric as a bare number by name (perfbench/run.py adds the
// units BENCHMARK.json declares).  The line before it is {"info": {...}}:
// seed, input fingerprint and the environment the numbers were measured
// in.  Exit status is 0 only when every call was answered, every reply
// checked out, the books balance and no specialization was built
// inside a timed window.
//
// --inject plants one fault per window (a corrupted echo reply, a
// shadow-map entry that disagrees with the store, or a call the server
// refuses) to show the gate catches it.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "harness.h"

namespace perfbench {
namespace {

using tempo::common::HistogramSnapshot;
using tempo::common::TraceRecord;

constexpr double kWindowSeconds = 0.5;
// End-to-end timing figures take the window at this quantile from the
// slow end (see perfbench/README.md, "How a run is measured").
constexpr double kSlowDecile = 0.1;
constexpr int kSetups = 5;
constexpr std::int64_t kWarmupCalls = 500;  // per client, inside set-up

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  Inject inject = Inject::kNone;
};

struct WorkloadDef {
  std::function<std::unique_ptr<Workload>(const WorkloadOptions&)> make;
  std::function<std::uint64_t(std::uint64_t)> input_hash;
};

const std::map<std::string, WorkloadDef>& workloads() {
  static const std::map<std::string, WorkloadDef> defs = {
      {"echo_bulk_udp", {make_echo_bulk_udp, echo_bulk_udp_input_hash}},
      {"echo_small_tcp", {make_echo_small_tcp, echo_small_tcp_input_hash}},
      {"kv_mixed", {make_kv_mixed, kv_mixed_input_hash}},
  };
  return defs;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else if (k == "--inject") {
      if (v == "reply") {
        a.inject = Inject::kReply;
      } else if (v == "shadow") {
        a.inject = Inject::kShadow;
      } else if (v == "refuse") {
        a.inject = Inject::kRefuse;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return workloads().count(a.workload) == 1 && a.seconds > 0;
}

// ---- statistics over windows ------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// A window's completed calls per second and process CPU per call.
double rate(const WindowResult& w) {
  return ratio(static_cast<double>(w.completed), w.wall_s);
}
double cpu_us_per_call_of(const WindowResult& w) {
  return ratio(w.process_cpu_s * 1e6, static_cast<double>(w.completed));
}

// One workload instance driven for a run's windows, plus the set-up
// times of the extra instances.
struct Phase {
  std::vector<WindowResult> windows;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<TraceRecord> traces;
  std::vector<std::string> errors;  // books and window checks
  std::string backend;
  bool loopback = false;
  std::int64_t jit_stubs = 0;

  // The q-quantile over windows of a per-window statistic.
  double across(const std::function<double(const WindowResult&)>& f,
                double q) const {
    std::vector<double> v;
    for (const auto& w : windows) v.push_back(f(w));
    return quantile(std::move(v), q);
  }
  // End-to-end figures are the slow decile of the windows: the level
  // the program held in 9 windows of 10.
  double calls_per_s() const { return across(rate, kSlowDecile); }
  double cpu_us_per_call() const {
    return across(cpu_us_per_call_of, 1 - kSlowDecile);
  }
  double slow_decile(double WindowResult::*f) const {
    return across([f](const WindowResult& w) { return w.*f; }, 1 - kSlowDecile);
  }
  double median_of(double WindowResult::*f) const {
    return across([f](const WindowResult& w) { return w.*f; }, 0.5);
  }
  std::int64_t sum(std::int64_t WindowResult::*f) const {
    std::int64_t s = 0;
    for (const auto& w : windows) s += w.*f;
    return s;
  }
};

// Confines the process, and so every thread it starts later, to one
// CPU: the highest-numbered one it may run on.  On a virtual machine
// that shares its host, each wake-up of a thread on another, idle vCPU
// waits for the hypervisor to schedule that vCPU, and how long that
// takes depends on the other guests: windows of one run then differ by
// up to 4x in calls/s, and runs of the same code spread by 0.6-0.8 of
// their median.  On one CPU a wake-up is a context switch inside the
// guest, so the figures measure the program: the CPU work of client,
// reactor and workers per call plus the switches between them.
// Returns the CPU, or -1 if the process could not be confined (the
// info line then shows more than one CPU).
int confine_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &set)) cpu = i;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

// Builds the workload and warms it up; returns the time that took.
double timed_setup(const WorkloadDef& def, const WorkloadOptions& opt,
                   std::unique_ptr<Workload>& w) {
  const auto t0 = std::chrono::steady_clock::now();
  w = def.make(opt);
  warm_up(*w, kWarmupCalls);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double counter_delta(const WindowResult& w, const std::string& name) {
  const auto it = w.after.counters.find(name);
  return it == w.after.counters.end() ? 0 : it->second - w.before.counters.at(name);
}

Phase run_phase(const Args& a, bool traced, double seconds) {
  WorkloadOptions opt;
  opt.seed = a.seed;
  opt.traced = traced;
  opt.inject = a.inject;
  opt.workdir = a.workdir;
  const WorkloadDef& def = workloads().at(a.workload);

  Phase p;
  std::unique_ptr<Workload> w;
  p.setup_s.push_back(timed_setup(def, opt, w));
  p.build_ms = w->spec_build_ms();
  const auto& rt = w->runtime();
  p.backend = rt.backend();
  p.loopback = (rt.udp_addr().host >> 24) == 127 &&
               (rt.tcp_addr().host >> 24) == 127;
  p.jit_stubs = w->jit_stubs();
  const int windows =
      std::max(1, static_cast<int>(std::lround(seconds / kWindowSeconds)));
  for (int i = 0; i < windows; ++i) {
    p.windows.push_back(run_window(*w, seconds / windows));
    const WindowResult& win = p.windows.back();
    p.errors.insert(p.errors.end(), win.errors.begin(), win.errors.end());
    // Set-up must have built every specialization; a build inside the
    // window would move set-up cost into the timed numbers.
    if (const double builds = counter_delta(win, "core.cache_misses"); builds > 0) {
      p.errors.push_back(std::to_string(static_cast<std::int64_t>(builds)) +
                         " specializations built inside timed window " +
                         std::to_string(i));
    }
  }
  const auto books = w->check_books();
  p.errors.insert(p.errors.end(), books.begin(), books.end());
  p.traces = rt.trace_snapshot();
  w.reset();
  while (static_cast<int>(p.setup_s.size()) < kSetups) {
    p.setup_s.push_back(timed_setup(def, opt, w));
    for (double ms : w->spec_build_ms()) p.build_ms.push_back(ms);
    w.reset();
  }
  return p;
}

// ---- metrics ----------------------------------------------------------------

constexpr const char* kStages[] = {"recv",    "decode", "cache_lookup",
                                   "execute", "encode", "flush"};

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::map<std::string, double> end_to_end(const Phase& p) {
  return {
      {"calls_per_s", p.calls_per_s()},
      {"rtt_p50_us", p.slow_decile(&WindowResult::rtt_p50_us)},
      {"rtt_p90_us", p.slow_decile(&WindowResult::rtt_p90_us)},
      {"cpu_us_per_call", p.cpu_us_per_call()},
      {"setup_s", median(p.setup_s)},
      {"peak_rss_mb", peak_rss_mb()},
  };
}

// Stage breakdown of the traced pass.  A record whose stage sum
// exceeds its total is inconsistent and is rejected, not averaged in.
void trace_metrics(const std::vector<TraceRecord>& records,
                   std::map<std::string, double>& m) {
  constexpr std::size_t kN = std::size(kStages);
  std::vector<std::uint32_t> stage[kN];
  std::vector<std::uint32_t> decode_generic, decode_jit;
  double stage_sum[kN] = {};
  double total_sum = 0;
  std::int64_t rejected = 0;
  for (const TraceRecord& r : records) {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < kN; ++i) sum += r.stage_ns[i];
    if (sum > r.total_ns) {
      ++rejected;
      continue;
    }
    total_sum += static_cast<double>(r.total_ns);
    for (std::size_t i = 0; i < kN; ++i) {
      stage[i].push_back(clamp_ns(r.stage_ns[i]));
      stage_sum[i] += static_cast<double>(r.stage_ns[i]);
    }
    const auto decode = clamp_ns(
        r.stage_ns[static_cast<std::size_t>(tempo::common::TraceStage::kDecode)]);
    if (r.tier == tempo::common::TraceTier::kGeneric) decode_generic.push_back(decode);
    if (r.tier == tempo::common::TraceTier::kJit) decode_jit.push_back(decode);
  }
  for (std::size_t i = 0; i < kN; ++i) {
    m[std::string("trace.") + kStages[i] + "_p50_us"] = percentile_us(stage[i], 0.5);
    m[std::string("trace.") + kStages[i] + "_share"] = ratio(stage_sum[i], total_sum);
  }
  m["trace.decode_p50_us.generic"] = percentile_us(decode_generic, 0.5);
  m["trace.decode_p50_us.jit"] = percentile_us(decode_jit, 0.5);
  m["trace.records"] = static_cast<double>(records.size()) - static_cast<double>(rejected);
  m["trace.rejected_records"] = static_cast<double>(rejected);
}

std::map<std::string, double> per_layer(const Phase& plain, const Phase& traced) {
  // Window shares of every counter and histogram, summed over windows.
  std::map<std::string, double> d;
  std::map<std::string, HistogramSnapshot> h;
  double process_cpu = 0, client_cpu = 0;
  for (const WindowResult& w : plain.windows) {
    for (const auto& [name, after] : w.after.counters) {
      d[name] += after - w.before.counters.at(name);
    }
    for (const auto& [name, after] : w.after.histograms) {
      h[name].merge(hist_delta(after, w.before.histograms.at(name)));
    }
    process_cpu += w.process_cpu_s;
    client_cpu += w.client_cpu_s;
  }
  auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1000.0; };
  const auto calls = static_cast<double>(plain.sum(&WindowResult::completed));
  const double served = d["core.fast_path"] + d["core.generic_path"];

  std::map<std::string, double> m = {
      {"rpc.server_e2e_p50_us", us(h["rpc.e2e"].p50())},
      {"rpc.server_e2e_p99_us", us(h["rpc.e2e"].p99())},
      {"rpc.queue_wait_p50_us", us(h["rpc.queue"].p50())},
      {"rpc.queue_wait_p99_us", us(h["rpc.queue"].p99())},
      {"rpc.handle_p50_us", us(h["rpc.handle"].p50())},
      {"rpc.server_cpu_us_per_call", ratio((process_cpu - client_cpu) * 1e6, calls)},
      {"rpc.overload_drops", d["rpc.overload_drops"]},
      {"rpc.reply_send_failures", d["rpc.reply_send_failures"]},
      {"rpc.conn_resets", d["rpc.conn_resets"]},
      {"rpc.work_steals", d["rpc.work_steals"]},
      {"rpc.datagrams_per_recv_batch",
       ratio(d["rpc.udp_datagrams"], d["rpc.udp_batches"])},
      {"net.wire_wait_us",
       plain.median_of(&WindowResult::rtt_p50_us) - us(h["rpc.e2e"].p50())},
      {"net.uring_enters_per_call", ratio(d["net.uring_enters"], calls)},
      {"client.rtt_p99_us", plain.median_of(&WindowResult::rtt_p99_us)},
      {"client.cpu_us_per_call", ratio(client_cpu * 1e6, calls)},
      {"client.retransmits", d["client.retransmits"]},
      {"client.stale_replies", d["client.stale_replies"]},
      {"arena.miss_frac",
       ratio(d["arena.misses"], d["arena.hits"] + d["arena.misses"])},
      {"core.fast_path_frac", ratio(d["core.fast_path"], served)},
      {"core.jit_frac", ratio(d["core.jit_fast_path"], served)},
      {"core.plan_fallbacks_per_call", ratio(d["core.plan_fallbacks"], calls)},
      {"core.cache_hot_hit_frac",
       ratio(d["core.cache_hot_hits"], d["core.cache_hits"])},
      {"core.cache_builds_in_window", d["core.cache_misses"]},
      {"core.spec_build_ms", median(plain.build_ms)},
      {"trace.overhead_frac",
       ratio(traced.cpu_us_per_call(), plain.cpu_us_per_call()) - 1},
      {"kv.commit_p50_us", us(h["kv.commit"].p50())},
      {"kv.commit_p99_us", us(h["kv.commit"].p99())},
      {"kv.wal_batched_frac", ratio(d["kv.wal_batched"], d["kv.wal_records"])},
      {"kv.wal_bytes_per_put",
       ratio(d["kv.wal_bytes"], static_cast<double>(plain.sum(&WindowResult::puts)))},
      {"kv.gc_reclaimed", d["kv.gc_reclaimed"]},
      {"kv.put_rtt_p50_us", plain.median_of(&WindowResult::put_rtt_p50_us)},
      {"kv.get_rtt_p50_us", plain.median_of(&WindowResult::get_rtt_p50_us)},
      {"failed_frac",
       ratio(static_cast<double>(plain.sum(&WindowResult::failed) +
                                 plain.sum(&WindowResult::mismatched)),
             static_cast<double>(plain.sum(&WindowResult::attempted)))},
      {"rtt_samples", static_cast<double>(plain.sum(&WindowResult::rtt_samples))},
  };
  trace_metrics(traced.traces, m);
  return m;
}

// ---- output -------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + json_number(v[i]);
  }
  return out + "]";
}

int run(const Args& a) {
  // End-to-end numbers come from an untraced runtime; the environment
  // override would trace it behind the benchmark's back.
  if (std::getenv("TEMPO_TRACE_SAMPLE") != nullptr) {
    std::fprintf(stderr, "perfbench: ignoring TEMPO_TRACE_SAMPLE\n");
    ::unsetenv("TEMPO_TRACE_SAMPLE");
  }
  const int cpu = confine_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "perfbench: could not confine the run to one CPU\n");
  }
  const WorkloadDef& def = workloads().at(a.workload);
  const std::uint64_t input_hash = def.input_hash(a.seed);
  if (def.input_hash(a.seed) != input_hash) {
    std::fprintf(stderr, "perfbench: input generation is not deterministic\n");
    return 1;
  }

  // A traced run splits its time between the untraced and traced passes.
  const double seconds = a.trace ? a.seconds / 2 : a.seconds;
  const Phase plain = run_phase(a, /*traced=*/false, seconds);
  Phase traced;
  if (a.trace) traced = run_phase(a, /*traced=*/true, seconds);

  std::vector<std::string> errors = plain.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  const std::int64_t attempted = plain.sum(&WindowResult::attempted) +
                                 traced.sum(&WindowResult::attempted);
  const std::int64_t completed = plain.sum(&WindowResult::completed) +
                                 traced.sum(&WindowResult::completed);
  const std::int64_t failed = plain.sum(&WindowResult::failed) +
                              traced.sum(&WindowResult::failed) +
                              plain.sum(&WindowResult::mismatched) +
                              traced.sum(&WindowResult::mismatched);
  // A call that failed or timed out fails the run like a wrong reply.
  const bool correct = failed == 0 && errors.empty() && completed > 0;

  const auto values = a.trace ? per_layer(plain, traced) : end_to_end(plain);

  std::vector<double> rates, cpu_per_call, p50s, p90s;
  for (const WindowResult& w : plain.windows) {
    rates.push_back(rate(w));
    cpu_per_call.push_back(cpu_us_per_call_of(w));
    p50s.push_back(w.rtt_p50_us);
    p90s.push_back(w.rtt_p90_us);
  }
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(input_hash));
  std::string info = "{\"info\": {\"workload\": " + json_string(a.workload);
  info += ", \"seed\": " + std::to_string(a.seed);
  info += ", \"input_hash\": \"" + std::string(hash) + "\"";
  info += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  info += ", \"cpus\": " + std::to_string(allowed_cpus());
  info += ", \"cpu\": " + std::to_string(cpu);
  info += ", \"backend\": " + json_string(plain.backend);
  info += ", \"jit_active\": " + std::string(plain.jit_stubs > 0 ? "true" : "false");
  info += ", \"metrics_enabled\": " +
          std::string(tempo::common::metrics_enabled() ? "true" : "false");
  info += ", \"loopback\": " + std::string(plain.loopback ? "true" : "false");
  info += ", \"calls\": " + std::to_string(plain.sum(&WindowResult::completed));
  info += ", \"rtt_samples\": " + std::to_string(plain.sum(&WindowResult::rtt_samples));
  info += ", \"setup_s_each\": " + json_list(plain.setup_s);
  info += ", \"calls_per_s_per_window\": " + json_list(rates);
  info += ", \"cpu_us_per_call_per_window\": " + json_list(cpu_per_call);
  info += ", \"rtt_p50_us_per_window\": " + json_list(p50s);
  info += ", \"rtt_p90_us_per_window\": " + json_list(p90s);
  info += ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size() && i < 8; ++i) {
    info += (i ? ", " : "") + json_string(errors[i]);
  }
  info += "]}}";
  std::printf("%s\n", info.c_str());

  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : values) {
    out += sep + json_string(name) + ": " + json_number(value);
    sep = ", ";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  for (const auto& e : errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload echo_bulk_udp|echo_small_tcp|"
                 "kv_mixed --seed N --seconds S --trace 0|1 [--workdir DIR] "
                 "[--inject reply|shadow|refuse]\n");
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
