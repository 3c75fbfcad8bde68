#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <sstream>
#include <thread>

#ifndef ERMSBENCH_COMPILER
#define ERMSBENCH_COMPILER "unknown"
#endif
#ifndef ERMSBENCH_BUILD_TYPE
#define ERMSBENCH_BUILD_TYPE "unknown"
#endif

namespace ermsbench {

void Tracer::enter(Layer layer) { stack_.push_back(Frame{layer, Clock::now(), 0.0}); }

double Tracer::leave() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const double d = seconds_since(f.start);
  const auto i = static_cast<std::size_t>(f.layer);
  total_s_[i] += d;
  self_s_[i] += d - f.child_s;
  ++calls_[i];
  if (!stack_.empty()) {
    stack_.back().child_s += d;
  }
  return d;
}

double Tracer::self_s_except(Layer excluded) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < kLayers; ++i) {
    sum += i == static_cast<std::size_t>(excluded) ? 0.0 : self_s_[i];
  }
  return sum;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"ops_per_s", "1/s", true},
      {"setup_s", "s", true},
      {"peak_rss_mb", "MiB", true},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = {
      // Workload-level figures, measured in the plain episodes.
      {"events_per_s", "1/s", true},
      {"sim_speed", "sim-s/s", true},
      {"reads_per_s", "1/s", true},
      {"tick_p50_ms", "ms", true},
      {"tick_p95_ms", "ms", true},
      {"tick_samples", "count", true},
      {"rss_b_per_file", "B/file", true},
      {"restart_s", "s", true},
      {"ec_encode_mb_s", "MB/s", true},
      {"ec_repair_mb_s", "MB/s", true},
      {"fail_ratio", "ratio", true},
      // Layers, measured in the traced episodes.
      {"judge.feed_push_ns_per_event", "ns", false},
      {"judge.feed_push_s", "s", false},
      {"cep.evict_ms_per_tick", "ms", false},
      {"cep.window_groups", "count", false},
      {"judge.sweep_ms_p50", "ms", false},
      {"judge.sweep_ms_max", "ms", false},
      {"core.hot_promotions", "count", false},
      {"core.cooldowns", "count", false},
      {"core.encodes_cooling", "count", false},
      {"core.encodes_frozen", "count", false},
      {"core.decodes", "count", false},
      {"core.jobs_failed", "count", false},
      {"core.standby_commissions", "count", false},
      {"condor.jobs", "count", false},
      {"condor.retries", "count", false},
      {"condor.timeouts", "count", false},
      {"condor.queue_depth_max", "count", false},
      {"hdfs.read_issue_us", "us", false},
      {"hdfs.write_issue_us", "us", false},
      {"hdfs.fail_node_ms", "ms", false},
      {"hdfs.reads_rejected", "count", false},
      {"hdfs.degraded_reads", "count", false},
      {"hdfs.rereplications", "count", false},
      {"hdfs.recovery_retries", "count", false},
      {"hdfs.blocks_lost", "count", false},
      {"hdfs.storage_overhead", "ratio", false},
      {"net.bytes_completed", "B", false},
      {"net.inter_rack_bytes", "B", false},
      {"net.flows_started", "count", false},
      {"net.flows_completed", "count", false},
      {"net.flows_aborted", "count", false},
      {"net.active_flows_mean", "count", false},
      {"net.active_flows_max", "count", false},
      {"sim.events", "count", false},
      {"sim.event_us_p50", "us", false},
      {"sim.event_us_p99", "us", false},
      {"sim.event_us_by_flows.le16", "us", false},
      {"sim.event_us_by_flows.le64", "us", false},
      {"sim.event_us_by_flows.le256", "us", false},
      {"sim.event_us_by_flows.gt256", "us", false},
      {"sim.other_s", "s", false},
      {"snapshot.save_ms", "ms", false},
      {"snapshot.load_ms", "ms", false},
      {"snapshot.bytes", "B", false},
      {"ec.encode_mb_s.rs", "MB/s", false},
      {"ec.encode_mb_s.azure_lrc", "MB/s", false},
      {"ec.encode_mb_s.hh_xor_plus", "MB/s", false},
      {"ec.repair_mb_s.rs", "MB/s", false},
      {"ec.repair_mb_s.azure_lrc", "MB/s", false},
      {"ec.repair_mb_s.hh_xor_plus", "MB/s", false},
      {"ec.repair_read_shards.rs", "shards", false},
      {"ec.repair_read_shards.azure_lrc", "shards", false},
      {"ec.repair_read_shards.hh_xor_plus", "shards", false},
      {"bench.client_retries", "count", false},
      {"bench.wall_ops_per_s", "1/s", true},
      {"bench.cal_slice_ms", "ms", true},
      {"bench.wall_setup_s", "s", true},
      {"bench.gen_s", "s", false},
      {"bench.trace_overhead", "ratio", false},
      {"bench.attributed_share", "ratio", false},
  };
  return kDefs;
}

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
  return *this;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::uint64_t status_kib(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, len, key) == 0) {
      std::istringstream fields(line.substr(len));
      std::uint64_t kib = 0;
      fields >> kib;
      return kib;
    }
  }
  return 0;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double median_of(const std::vector<Episode>& eps, const std::string& name) {
  std::vector<double> v;
  for (const Episode& e : eps) {
    const auto it = e.values.find(name);
    if (it != e.values.end()) {
      v.push_back(it->second);
    }
  }
  return median(std::move(v));
}

void print_provenance(const Options& o, const Params& params, std::size_t plain,
                      std::size_t traced) {
  std::printf(
      "provenance {\"hardware_threads\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"source\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"plain_episodes\": %zu, \"traced_episodes\": %zu, \"params\": {",
      std::thread::hardware_concurrency(), json_escape(ERMSBENCH_COMPILER).c_str(),
      json_escape(ERMSBENCH_BUILD_TYPE).c_str(), json_escape(o.source_id).c_str(),
      json_escape(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      json_number(o.seconds).c_str(), o.trace ? 1 : 0, plain, traced);
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i == 0 ? "" : ", ", json_escape(params[i].first).c_str(),
                json_escape(params[i].second).c_str());
  }
  std::printf("}}\n");
}

/// Medians over a run's episodes.
struct Rates {
  double wall{0.0};         // Episode::wall_rate()
  double calibrated{0.0};   // Episode::calibrated_rate()
  double cal_slice_s{0.0};  // the episode's median calibration slice
};

Rates median_rates(const std::vector<Episode>& eps) {
  std::vector<double> wall;
  std::vector<double> calibrated;
  std::vector<double> slice;
  for (const Episode& e : eps) {
    wall.push_back(e.wall_rate());
    calibrated.push_back(e.calibrated_rate());
    slice.push_back(median(e.cal_samples));
  }
  return Rates{median(std::move(wall)), median(std::move(calibrated)), median(std::move(slice))};
}

/// The seed of input `index` of a run: the run's own seed for index 0.
std::uint64_t episode_seed(std::uint64_t seed, std::uint64_t index) {
  if (index == 0) {
    return seed;
  }
  // splitmix64 finaliser over (seed, index): independent, reproducible inputs.
  std::uint64_t z = seed + index * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Where calibration slices leave their results, so none can be elided.
volatile std::uint64_t cal_sink = 0;

}  // namespace

double calibration_slice_s() {
  // Three parts of about equal length, since neighbours on a shared host
  // slow different instruction mixes differently: one dependent chain
  // (latency-bound) and four independent ones (throughput-bound) indexing a
  // 32 KiB table, then a miniature discrete-event loop (binary-heap event
  // queue, ordered-map flow table, std::function dispatch, small
  // allocations). On a 4-vCPU VM the sum tracked the simulated workloads'
  // slowdowns better than fewer parts: episode time / slice time varied by
  // 1.3% (coefficient of variation) between episodes of one input, against
  // 2-7% with one or two parts and 9-12% for episode time alone.
  constexpr std::size_t kTable = 4096;
  constexpr std::size_t kMask = kTable - 1;
  constexpr int kLatencySteps = 72'000;
  constexpr int kThroughputSteps = 64'000;
  constexpr int kEventSteps = 1'400;
  struct Event {
    std::uint64_t at;
    std::uint32_t id;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  struct EventLoop {
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::map<std::uint32_t, std::uint64_t> flows;
    std::vector<std::function<void(std::uint64_t)>> handlers;
    std::uint64_t x{0x9E3779B97F4A7C15ULL};
  };
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kTable);
    for (std::size_t i = 0; i < kTable; ++i) {
      t[i] = (i + 1) * 0x9E3779B97F4A7C15ULL;
    }
    return t;
  }();
  static EventLoop loop = [] {
    EventLoop l;
    for (std::uint32_t i = 0; i < 8; ++i) {
      l.handlers.emplace_back([i](std::uint64_t v) { cal_sink = cal_sink + v * (i + 1); });
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      l.queue.push(Event{7ULL * i, i});
    }
    return l;
  }();
  const auto xorshift = [](std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  };

  const auto start = Clock::now();
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < kLatencySteps; ++i) {
    xorshift(x);
    acc += table[(x ^ acc) & kMask];
  }
  std::array<std::uint64_t, 4> xs{1, 2, 3, 4};
  for (int i = 0; i < kThroughputSteps; ++i) {
    for (std::uint64_t& xi : xs) {
      xorshift(xi);
      acc += table[xi & kMask];
    }
  }
  for (int i = 0; i < kEventSteps; ++i) {
    const Event e = loop.queue.top();
    loop.queue.pop();
    xorshift(loop.x);
    const auto key = static_cast<std::uint32_t>(loop.x % 1024);
    const auto it = loop.flows.find(key);
    if (it == loop.flows.end()) {
      loop.flows.emplace(key, e.at);
    } else if ((loop.x & 0x100) != 0) {
      loop.flows.erase(it);
    } else {
      it->second += e.at;
    }
    loop.handlers[loop.x & 7](e.id);
    const auto scratch = std::make_unique<std::uint64_t[]>(4 + (loop.x >> 60));
    scratch[0] = e.at;
    acc ^= scratch[0];
    loop.queue.push(Event{e.at + 1 + (loop.x >> 54), e.id});
  }
  cal_sink = cal_sink ^ acc;
  return seconds_since(start);
}

double Episode::cal_s() const {
  double sum = 0.0;
  for (const double s : cal_samples) {
    sum += s;
  }
  return sum;
}

double Episode::calibrated_rate() const {
  return wall_rate() * median(cal_samples) / kCalNominalS;
}

std::uint64_t current_rss_bytes() { return status_kib("VmRSS:") * 1024; }
std::uint64_t peak_rss_bytes() { return status_kib("VmHWM:") * 1024; }

int run_episodes(const Options& options, const Params& params, const EpisodeFn& fn) {
  std::vector<Episode> plain;
  std::vector<Episode> traced;
  std::map<std::uint64_t, std::uint64_t> digests;  // input index -> outcome digest
  std::set<std::string> failures;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    // Episode k of a plain run draws input k; a traced run alternates plain
    // and traced episodes over the same inputs, so each pair must agree.
    const bool trace_this = options.trace && i % 2 == 1;
    const std::uint64_t input = options.trace ? i / 2 : i;
    Options episode_options = options;
    episode_options.seed = episode_seed(options.seed, input);
    Tracer tracer;
    Episode ep = fn(episode_options, trace_this ? &tracer : nullptr);
    std::printf("episode %zu %s: input %llu, setup %.3fs, %.6g ops/s wall, %.6g ops/s "
                "calibrated, %llu/%llu ops failed, digest %016llx\n",
                i, trace_this ? "traced" : "plain", static_cast<unsigned long long>(input),
                ep.setup_s, ep.wall_rate(), ep.calibrated_rate(),
                static_cast<unsigned long long>(ep.failed),
                static_cast<unsigned long long>(ep.attempted),
                static_cast<unsigned long long>(ep.digest));
    std::fflush(stdout);
    const auto [it, fresh] = digests.emplace(input, ep.digest);
    if (!fresh && it->second != ep.digest) {
      failures.insert("plain and traced episodes of one input reach different outcomes");
    }
    (trace_this ? traced : plain).push_back(std::move(ep));
    if (seconds_since(start) >= options.seconds && plain.size() >= kMinPlainEpisodes &&
        (!options.trace || !traced.empty())) {
      break;
    }
  }

  // Output checks: every episode's own checks.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::uint64_t digest = digests.at(0);
  for (const auto* group : {&plain, &traced}) {
    for (const Episode& e : *group) {
      failures.insert(e.failures.begin(), e.failures.end());
      attempted += e.attempted;
      failed += e.failed;
    }
  }

  // Throughput and set-up time as medians over the plain episodes, both
  // calibrated by the episode's median slice.
  std::vector<double> setups;
  std::vector<double> wall_setups;
  for (const Episode& e : plain) {
    const double slice_s = median(e.cal_samples);
    setups.push_back(slice_s > 0.0 ? e.setup_s * kCalNominalS / slice_s : 0.0);
    wall_setups.push_back(e.setup_s);
  }
  const Rates plain_rates = median_rates(plain);
  const double plain_ops = plain_rates.calibrated;
  std::map<std::string, double> e2e{
      {"ops_per_s", plain_ops},
      {"setup_s", median(setups)},
      {"peak_rss_mb", static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0)},
  };
  std::map<std::string, double> layers;
  for (const MetricDef& m : per_layer_metrics()) {
    const std::string name(m.name);
    layers[name] = median_of(m.plain ? plain : traced, name);
  }
  layers["bench.wall_ops_per_s"] = plain_rates.wall;
  layers["bench.cal_slice_ms"] = 1e3 * plain_rates.cal_slice_s;
  layers["bench.wall_setup_s"] = median(wall_setups);
  std::printf("throughput: %.6g ops/s wall, %.6g ops/s calibrated, calibration slice %.4f ms; "
              "set-up %.6g s wall\n",
              plain_rates.wall, plain_rates.calibrated, 1e3 * plain_rates.cal_slice_s,
              median(wall_setups));
  if (!traced.empty()) {
    const double t = median_rates(traced).calibrated;
    layers["bench.trace_overhead"] = t > 0.0 ? plain_ops / t - 1.0 : 0.0;
  }
  for (const auto& [name, v] : e2e) {
    if (!(std::isfinite(v) && v > 0.0)) {
      failures.insert("end-to-end metric " + name + " is not a positive number");
    }
  }

  print_provenance(options, params, plain.size(), traced.size());
  std::printf("digest %s %016llx\n", options.workload.c_str(),
              static_cast<unsigned long long>(digest));
  for (const MetricDef& m : end_to_end_metrics()) {
    std::printf("metric %-36s %18.6f %s%s\n", std::string(m.name).c_str(),
                e2e[std::string(m.name)], std::string(m.unit).c_str(),
                options.trace ? "  (plain episodes)" : "");
  }
  if (options.trace) {
    for (const MetricDef& m : per_layer_metrics()) {
      std::printf("metric %-36s %18.6f %s\n", std::string(m.name).c_str(),
                  layers[std::string(m.name)], std::string(m.unit).c_str());
    }
  }
  std::printf("ops attempted %llu, failed %llu (fail_ratio %.6g)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                            : 0.0);
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  const bool correct = failures.empty();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, attempted));
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  const auto& defs = options.trace ? per_layer_metrics() : end_to_end_metrics();
  const auto& values = options.trace ? layers : e2e;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const std::string name(defs[i].name);
    line += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " +
            json_number(values.at(name)) + ", \"unit\": \"" + std::string(defs[i].unit) +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace ermsbench
