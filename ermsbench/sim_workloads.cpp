// lifecycle_skewed and writes_failures: the whole ERMS control loop on a
// ~200-node fabric (10 racks of 20, three standby nodes per rack), driven
// through public calls only. The two workloads share the network model, the
// event queue, Condor and the actions, and use them differently:
//
//  - lifecycle_skewed: Poisson reads with Zipf popularity whose hot set
//    rotates every epoch, plus re-warm bursts on encoded files. Thresholds,
//    cold_age and frozen_age are chosen so every run promotes, cools,
//    encodes in both temperature bands, decodes and commissions standby
//    nodes. CEP and judge state stay small; flows, events and actions
//    dominate.
//  - writes_failures: open-loop write pipelines beside a read trickle, a
//    seeded crash/recover schedule (capped re-replication, flow aborts,
//    watchdogs) and pre-encoded files (degraded reads, stripe rebuilds).
//    The judge and CEP stay near idle.
//
// The harness calls ErmsManager::evaluate() itself at every 30 s boundary
// (after flush_audit and advance_to), so it can time the sweep; the plain
// and traced runs issue the identical call sequence and must reach the
// identical outcome digest.
#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>

#include "core/erms.h"
#include "fault/fault_plan.h"
#include "hdfs/cluster.h"
#include "obs/metrics_registry.h"
#include "sim/random.h"
#include "workloads.h"

namespace ermsbench {
namespace {

namespace core = erms::core;
namespace ec = erms::ec;
namespace fault = erms::fault;
namespace hdfs = erms::hdfs;
namespace sim = erms::sim;

constexpr std::size_t kRacks = 10;
constexpr std::size_t kNodesPerRack = 20;
constexpr std::size_t kStandbyPerRack = 3;
constexpr std::int64_t kActiveNodes = kRacks * (kNodesPerRack - kStandbyPerRack);
constexpr std::size_t kFlushEvents = 256;
constexpr std::int64_t kPeriodUs = 30'000'000;
/// A client gives up on a read or write after this many attempts.
constexpr int kMaxAttempts = 10;
/// Upper bound on the drain after the horizon, in control periods.
constexpr std::int64_t kMaxDrainTicks = 120;
constexpr std::uint64_t kMiB = 1ULL << 20;

sim::SimTime at_us(std::int64_t us) { return sim::SimTime{us}; }

/// The tail nodes of every rack form the standby pool ("active and standby
/// nodes ... distributed in different racks", paper §III.B).
std::vector<hdfs::NodeId> standby_pool() {
  std::vector<hdfs::NodeId> pool;
  for (std::size_t r = 0; r < kRacks; ++r) {
    for (std::size_t i = kNodesPerRack - kStandbyPerRack; i < kNodesPerRack; ++i) {
      pool.push_back(hdfs::NodeId{static_cast<std::uint32_t>(r * kNodesPerRack + i)});
    }
  }
  return pool;
}

std::vector<hdfs::NodeId> active_set() {
  std::vector<hdfs::NodeId> nodes;
  for (std::size_t r = 0; r < kRacks; ++r) {
    for (std::size_t i = 0; i < kNodesPerRack - kStandbyPerRack; ++i) {
      nodes.push_back(hdfs::NodeId{static_cast<std::uint32_t>(r * kNodesPerRack + i)});
    }
  }
  return nodes;
}

/// Cluster + manager of one episode.
struct World {
  World(const core::ErmsConfig& config, std::uint64_t seed)
      : topo(hdfs::Topology::uniform(kRacks, kNodesPerRack)),
        cluster(sim, topo, cluster_config(seed)),
        mgr(cluster, standby_pool(), config) {
    mgr.start();  // sinks, failure listener, ERMS placement ...
    mgr.stop();   // ... but the harness runs the evaluation cadence itself
  }
  static hdfs::ClusterConfig cluster_config(std::uint64_t seed) {
    hdfs::ClusterConfig c;
    c.seed = seed;
    return c;
  }

  sim::Simulation sim;
  hdfs::Topology topo;
  hdfs::Cluster cluster;
  core::ErmsManager mgr;
};

/// Steps the simulation to each control-period boundary and runs the
/// period's flush → evict → sweep, with spans around every call when traced.
class PeriodLoop {
 public:
  /// Each control period is a unit of `ep`'s measured work.
  PeriodLoop(World& w, Tracer* tracer, Episode& ep) : w_(w), tracer_(tracer), ep_(ep) {
    // Set-up (populate, pre-encodes) emits audit records; deliver them now
    // in both runs, since installing the traced sink below would.
    w_.cluster.flush_audit();
    if (tracer_ != nullptr) {
      // Same flush size as the manager's own sink, so the feed sees the
      // identical batches; the span around each push is all that is new.
      w_.cluster.set_audit_batch_sink(
          [this](const erms::audit::AuditEvent* events, std::size_t n) {
            const Span span(tracer_, Layer::kFeedPush);
            w_.mgr.feed().on_audit_batch(events, n);
            pushed_ += n;
          },
          kFlushEvents);
      w_.cluster.network().set_metrics(&registry_);
      flows_started_ = registry_.counter("net.flows.started");
      flows_completed_ = registry_.counter("net.flows.completed");
    }
  }
  ~PeriodLoop() {
    if (tracer_ != nullptr) {
      core::ErmsManager& mgr = w_.mgr;
      w_.cluster.set_audit_batch_sink(
          [&mgr](const erms::audit::AuditEvent* events, std::size_t n) {
            mgr.feed().on_audit_batch(events, n);
          },
          kFlushEvents);
      w_.cluster.network().set_metrics(nullptr);
    }
  }
  PeriodLoop(const PeriodLoop&) = delete;
  PeriodLoop& operator=(const PeriodLoop&) = delete;

  /// Execute every event up to sim time `t` (those already scheduled at `t`
  /// included), one Simulation::step() at a time.
  void run_to(sim::SimTime t) {
    bool reached = false;
    w_.sim.schedule_at(t, [&reached] { reached = true; });
    while (!reached) {
      if (tracer_ == nullptr) {
        w_.sim.step();
        continue;
      }
      const std::size_t flows = w_.cluster.network().active_flows();
      tracer_->enter(Layer::kSimStep);
      w_.sim.step();
      const double d = tracer_->leave();
      event_us_.push_back(1e6 * d);
      const std::size_t b = flows <= 16 ? 0 : flows <= 64 ? 1 : flows <= 256 ? 2 : 3;
      bucket_s_[b] += d;
      ++bucket_n_[b];
      flows_sum_ += static_cast<double>(flows);
      flows_max_ = std::max(flows_max_, flows);
    }
  }

  /// The control period boundary: deliver buffered audit records, evict the
  /// window, run the Data Judge sweep, sample the Condor queue.
  void tick() {
    w_.cluster.flush_audit();
    const auto e0 = Clock::now();
    {
      const Span span(tracer_, Layer::kCepEvict);
      w_.mgr.feed().advance_to(w_.sim.now());
    }
    evict_s_ += seconds_since(e0);
    const auto s0 = Clock::now();
    {
      const Span span(tracer_, Layer::kJudgeSweep);
      w_.mgr.evaluate();
    }
    sweep_ms_.push_back(1e3 * seconds_since(s0));
    queue_depth_max_ = std::max(queue_depth_max_, w_.mgr.scheduler().queued_count());
    const double period_s = seconds_since(last_tick_end_);
    tick_ms_.push_back(1e3 * period_s);
    ep_.add_unit(period_s);  // its calibration slice runs off the period's clock
    last_tick_end_ = Clock::now();
  }

  void start_clock() { last_tick_end_ = Clock::now(); }

  /// Per-layer figures of the traced run (plain runs leave them unset).
  void report(Episode& ep) const {
    ep.values["tick_p50_ms"] = median(tick_ms_);
    ep.values["tick_p95_ms"] = quantile(tick_ms_, 0.95);
    ep.values["tick_samples"] = static_cast<double>(tick_ms_.size());
    ep.values["condor.queue_depth_max"] = static_cast<double>(queue_depth_max_);
    if (tracer_ == nullptr) {
      return;
    }
    const double push_s = tracer_->total_s(Layer::kFeedPush);
    ep.values["judge.feed_push_s"] = push_s;
    ep.values["judge.feed_push_ns_per_event"] =
        pushed_ > 0 ? 1e9 * push_s / static_cast<double>(pushed_) : 0.0;
    ep.values["cep.evict_ms_per_tick"] = 1e3 * evict_s_ / static_cast<double>(tick_ms_.size());
    ep.values["judge.sweep_ms_p50"] = median(sweep_ms_);
    ep.values["judge.sweep_ms_max"] = *std::max_element(sweep_ms_.begin(), sweep_ms_.end());
    ep.values["cep.window_groups"] = static_cast<double>(window_groups(w_.mgr.feed()));
    ep.values["sim.events"] = static_cast<double>(event_us_.size());
    ep.values["sim.event_us_p50"] = quantile(event_us_, 0.50);
    ep.values["sim.event_us_p99"] = quantile(event_us_, 0.99);
    static constexpr const char* kBuckets[] = {"le16", "le64", "le256", "gt256"};
    for (std::size_t b = 0; b < 4; ++b) {
      ep.values[std::string("sim.event_us_by_flows.") + kBuckets[b]] =
          bucket_n_[b] > 0 ? 1e6 * bucket_s_[b] / static_cast<double>(bucket_n_[b]) : 0.0;
    }
    ep.values["sim.other_s"] = tracer_->self_s(Layer::kSimStep);
    ep.values["net.active_flows_mean"] =
        event_us_.empty() ? 0.0 : flows_sum_ / static_cast<double>(event_us_.size());
    ep.values["net.active_flows_max"] = static_cast<double>(flows_max_);
    ep.values["net.flows_started"] = static_cast<double>(registry_.counter_value(flows_started_));
    ep.values["net.flows_completed"] =
        static_cast<double>(registry_.counter_value(flows_completed_));
  }

 private:
  World& w_;
  Tracer* tracer_;
  Episode& ep_;
  erms::obs::MetricsRegistry registry_;
  erms::obs::CounterId flows_started_;
  erms::obs::CounterId flows_completed_;
  Clock::time_point last_tick_end_{};
  std::vector<double> tick_ms_;
  std::vector<double> sweep_ms_;
  double evict_s_{0.0};
  std::size_t queue_depth_max_{0};
  std::uint64_t pushed_{0};
  std::vector<double> event_us_;
  std::array<double, 4> bucket_s_{};
  std::array<std::uint64_t, 4> bucket_n_{};
  double flows_sum_{0.0};
  std::size_t flows_max_{0};
};

/// Open-loop clients: each request is issued on its schedule whatever the
/// cluster's state. A read the cluster rejects (every replica holder busy,
/// no live replica) or a write whose pipeline broke is retried with capped
/// exponential backoff, as HDFS clients do; an operation fails only when
/// its attempts run out.
class Clients {
 public:
  Clients(World& w, Tracer* tracer, std::uint64_t seed)
      : w_(w), tracer_(tracer), rng_(seed ^ 0x5bd1e995ULL), active_(active_set()) {}
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  void read(hdfs::NodeId client, hdfs::FileId file, int attempt = 0) {
    ++(attempt == 0 ? reads_issued_ : retries_);
    const Span span(tracer_, Layer::kReadIssue);
    w_.cluster.read_file(client, file, [this, client, file, attempt](const hdfs::ReadOutcome& out) {
      if (out.ok) {
        ++reads_ok_;
        degraded_ += out.degraded ? 1 : 0;
        return;
      }
      if (attempt + 1 >= kMaxAttempts) {
        ++reads_failed_;
        return;
      }
      w_.sim.schedule_after(backoff(attempt),
                            [this, client, file, attempt] { read(client, file, attempt + 1); });
    });
  }

  /// Write a new file from a random serving node of the active set.
  void write(const std::string& path, std::uint64_t size, int attempt = 0) {
    ++(attempt == 0 ? writes_issued_ : retries_);
    const hdfs::NodeId writer = serving_node();
    const Span span(tracer_, Layer::kWriteIssue);
    w_.cluster.write_file(path, size, writer, [this, path, size, attempt](bool ok) {
      if (ok) {
        ++writes_ok_;
        return;
      }
      // The pipeline broke. Abandon the partial file and retry on a fresh
      // pipeline — from its own event, since this callback may run inside
      // write_file or a flow's abort handler.
      w_.sim.schedule_after(sim::micros(0), [this, path, size, attempt] {
        if (const hdfs::FileInfo* info = w_.cluster.metadata().find_path(path)) {
          w_.cluster.remove_file(info->id);
        }
        if (attempt + 1 >= kMaxAttempts) {
          ++writes_failed_;
          return;
        }
        w_.sim.schedule_after(backoff(attempt),
                              [this, path, size, attempt] { write(path, size, attempt + 1); });
      });
    });
  }

  [[nodiscard]] hdfs::NodeId serving_node() {
    for (;;) {
      const hdfs::NodeId n = active_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(active_.size()) - 1))];
      if (w_.cluster.is_serving(n)) {
        return n;
      }
    }
  }

  [[nodiscard]] std::uint64_t issued() const { return reads_issued_ + writes_issued_; }
  [[nodiscard]] std::uint64_t ok() const { return reads_ok_ + writes_ok_; }
  [[nodiscard]] std::uint64_t failed() const { return reads_failed_ + writes_failed_; }
  [[nodiscard]] std::uint64_t outstanding() const { return issued() - ok() - failed(); }
  [[nodiscard]] std::uint64_t reads_ok() const { return reads_ok_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t degraded() const { return degraded_; }

  void add_to(Digest& d) const {
    d.add(reads_issued_).add(reads_ok_).add(reads_failed_).add(writes_issued_);
    d.add(writes_ok_).add(writes_failed_).add(retries_).add(degraded_);
  }

 private:
  static sim::SimDuration backoff(int attempt) {
    return sim::seconds(static_cast<double>(std::min(8, 1 << attempt)));
  }

  World& w_;
  Tracer* tracer_;
  sim::Rng rng_;
  std::vector<hdfs::NodeId> active_;
  std::uint64_t reads_issued_{0};
  std::uint64_t reads_ok_{0};
  std::uint64_t reads_failed_{0};
  std::uint64_t writes_issued_{0};
  std::uint64_t writes_ok_{0};
  std::uint64_t writes_failed_{0};
  std::uint64_t retries_{0};
  std::uint64_t degraded_{0};
};

/// Pre-generated open-loop requests, replayed by a self-rescheduling event
/// chain so the event queue holds one pending arrival at a time.
struct Arrival {
  std::int64_t at_us;
  std::uint32_t file;    // index into the workload's file list
  std::uint32_t client;  // index into active_set(); unused for writes
  bool write;
};

class ArrivalChain {
 public:
  ArrivalChain(World& w, std::vector<Arrival> arrivals, std::function<void(const Arrival&)> issue)
      : w_(w), arrivals_(std::move(arrivals)), issue_(std::move(issue)) {}
  ArrivalChain(const ArrivalChain&) = delete;
  ArrivalChain& operator=(const ArrivalChain&) = delete;

  void arm() { schedule(0); }

 private:
  void schedule(std::size_t i) {
    if (i < arrivals_.size()) {
      w_.sim.schedule_at(at_us(arrivals_[i].at_us), [this, i] {
        issue_(arrivals_[i]);
        schedule(i + 1);
      });
    }
  }

  World& w_;
  std::vector<Arrival> arrivals_;
  std::function<void(const Arrival&)> issue_;
};

/// Runs `ticks` control periods from sim time `start_us`, then drains until
/// `drained()` holds (at most kMaxDrainTicks more periods). Returns the
/// number of periods run.
std::int64_t run_periods(PeriodLoop& d, std::int64_t start_us, std::int64_t ticks,
                         const std::function<bool()>& drained) {
  std::int64_t k = 1;
  for (; k <= ticks || (!drained() && k <= ticks + kMaxDrainTicks); ++k) {
    d.run_to(at_us(start_us + k * kPeriodUs));
    d.tick();
  }
  return k - 1;
}

/// used bytes / raw file bytes — replication and parity overhead (Fig. 5).
double storage_overhead(const hdfs::Cluster& c) {
  double raw = 0.0;
  for (const hdfs::FileId f : c.metadata().file_ids()) {
    raw += static_cast<double>(c.metadata().find(f)->size);
  }
  return raw > 0.0 ? static_cast<double>(c.used_bytes_total()) / raw : 0.0;
}

/// Figures and checks common to both simulated workloads, plus the digest.
void finish(Episode& ep, World& w, const PeriodLoop& d, const Clients& clients, Tracer* tracer,
            double wall_s, double sim_s, std::uint64_t feed_events, double gen_s) {
  const hdfs::Cluster& c = w.cluster;
  const core::ErmsStats& st = w.mgr.stats();
  ep.attempted = clients.issued();
  ep.failed = clients.failed();
  ep.ops = static_cast<double>(clients.ok());
  ep.values["events_per_s"] = static_cast<double>(feed_events) / wall_s;
  ep.values["sim_speed"] = sim_s / wall_s;
  ep.values["reads_per_s"] = static_cast<double>(clients.reads_ok()) / wall_s;
  ep.values["fail_ratio"] =
      static_cast<double>(ep.failed) / static_cast<double>(std::max<std::uint64_t>(1, ep.attempted));
  d.report(ep);
  if (tracer != nullptr) {
    auto per_call = [&](Layer l, double scale) {
      return tracer->calls(l) > 0 ? scale * tracer->total_s(l) / static_cast<double>(tracer->calls(l))
                                  : 0.0;
    };
    ep.values["hdfs.read_issue_us"] = per_call(Layer::kReadIssue, 1e6);
    ep.values["hdfs.write_issue_us"] = per_call(Layer::kWriteIssue, 1e6);
    ep.values["hdfs.fail_node_ms"] = per_call(Layer::kFailNode, 1e3);
    ep.values["bench.gen_s"] = gen_s;
    ep.values["bench.attributed_share"] = tracer->self_s_except(Layer::kSimStep) / wall_s;
  }
  const auto count = [&ep](const char* name, std::uint64_t v) {
    ep.values[name] = static_cast<double>(v);
  };
  count("core.hot_promotions", st.hot_promotions);
  count("core.cooldowns", st.cooldowns);
  count("core.encodes_cooling", st.encodes_cooling);
  count("core.encodes_frozen", st.encodes_frozen);
  count("core.decodes", st.decodes);
  count("core.jobs_failed", st.jobs_failed);
  count("core.standby_commissions", w.mgr.standby().commissions());
  std::uint64_t submitted = 0;
  for (const auto& rec : w.mgr.scheduler().log()) {
    submitted += rec.kind == erms::condor::JobLogRecord::Kind::kSubmit ? 1 : 0;
  }
  count("condor.jobs", submitted);
  count("condor.retries", w.mgr.scheduler().retries());
  count("condor.timeouts", w.mgr.scheduler().timeouts());
  count("hdfs.reads_rejected", c.reads_rejected());
  count("hdfs.degraded_reads", clients.degraded());
  count("hdfs.rereplications", c.rereplications_completed());
  count("hdfs.recovery_retries", c.recovery_retries());
  count("hdfs.blocks_lost", c.blocks_lost());
  ep.values["hdfs.storage_overhead"] = storage_overhead(c);
  count("net.bytes_completed", c.network().total_bytes_completed());
  count("net.inter_rack_bytes", c.network().inter_rack_bytes());
  count("net.flows_aborted", c.network().flows_aborted());
  count("bench.client_retries", clients.retries());

  std::size_t unavailable = 0;
  for (const hdfs::FileId f : c.metadata().file_ids()) {
    unavailable += c.file_available(f) ? 0 : 1;
  }
  ep.check(c.blocks_lost() == 0, "no block lost");
  ep.check(unavailable == 0, "every file available at the end");
  ep.check(clients.outstanding() == 0, "every read and write accounted ok or failed after the drain");

  Digest dg;
  dg.add(st.evaluations).add(st.hot_promotions).add(st.overload_promotions);
  dg.add(st.cooldowns).add(st.encodes_cooling).add(st.encodes_frozen).add(st.decodes);
  dg.add(st.jobs_failed).add(w.mgr.standby().commissions()).add(w.mgr.standby().power_downs());
  dg.add(c.reads_completed()).add(c.reads_rejected()).add(c.rereplications_completed());
  dg.add(c.recovery_retries()).add(c.recoveries_abandoned()).add(c.blocks_lost());
  dg.add(c.nodes_revived()).add(c.used_bytes_total()).add(c.metadata().file_count());
  dg.add(c.network().total_bytes_completed()).add(c.network().inter_rack_bytes());
  dg.add(c.network().flows_aborted()).add(c.network().bytes_aborted());
  dg.add(w.mgr.scheduler().log().size()).add(w.sim.events_executed());
  dg.add(static_cast<std::uint64_t>(w.sim.now().micros())).add(feed_events);
  clients.add_to(dg);
  ep.digest = dg.value();
}

// ---------------------------------------------------------------------------
// lifecycle_skewed

constexpr std::size_t kLcFiles = 2000;
constexpr std::uint64_t kLcFileBytes = 128 * kMiB;  // two 64 MiB blocks
constexpr double kLcReadsPerS = 8.0;
constexpr double kLcZipf = 1.1;
constexpr std::int64_t kLcEpochUs = 20LL * 60 * 1'000'000;  // hot-set rotation
constexpr std::int64_t kLcTicks = 200;                      // 100 sim-minutes
constexpr std::int64_t kLcColdAgeS = 15 * 60;
/// Re-warm bursts: at each time, up to kLcBurstFiles encoded files get
/// kLcBurstReads reads within kLcBurstSpanS — enough opens in one window to
/// rule them hot again and decode them.
constexpr std::int64_t kLcBurstMinutes[] = {45, 60, 75, 90};
constexpr std::size_t kLcBurstFiles = 3;
constexpr std::size_t kLcBurstReads = 16;
constexpr double kLcBurstSpanS = 40.0;

core::ErmsConfig lifecycle_config() {
  core::ErmsConfig c;
  c.thresholds.window = sim::seconds(60.0);
  c.thresholds.cold_age = sim::seconds(static_cast<double>(kLcColdAgeS));
  // Files never read are first judged at the first tick, so their first
  // cold verdict comes exactly one period past cold_age: frozen band. A
  // file last read mid-period is judged cold 0–30 s past cold_age: about
  // half land in each band.
  c.frozen_age = c.thresholds.cold_age + sim::seconds(15.0);
  // Deferred (kWhenIdle) jobs wait for an idle cluster; with reads always
  // in flight, "idle" has to mean no background transfer plus a flow count
  // the read load stays under.
  c.idle_flow_threshold = 1024;
  c.judge_shards = 1;
  c.sweep_threads = 1;
  c.judge_batch_flush_events = kFlushEvents;
  return c;
}

Episode lifecycle_episode(const Options& o, Tracer* tracer) {
  Episode ep;
  const auto setup_start = Clock::now();
  auto w = std::make_unique<World>(lifecycle_config(), o.seed);
  std::vector<hdfs::FileId> files;
  for (std::size_t i = 0; i < kLcFiles; ++i) {
    const auto id = w->cluster.populate_file("/lc/f" + std::to_string(i), kLcFileBytes, 3);
    ep.check(id.has_value(), "populate created every file");
    files.push_back(id.value_or(hdfs::FileId{0}));
  }
  // Poisson arrivals; popularity is Zipf over a ranking reshuffled every
  // epoch, so each epoch's hot set cools in the next.
  const auto gen_start = Clock::now();
  sim::Rng rng{o.seed};
  const sim::ZipfDistribution zipf(kLcFiles, kLcZipf);
  const std::int64_t horizon_us = kLcTicks * kPeriodUs;
  std::vector<std::uint32_t> rank_to_file(kLcFiles);
  std::vector<Arrival> arrivals;
  std::int64_t epoch = -1;
  for (double t = rng.exponential(1.0 / kLcReadsPerS) * 1e6; t < static_cast<double>(horizon_us);
       t += rng.exponential(1.0 / kLcReadsPerS) * 1e6) {
    const auto t_us = static_cast<std::int64_t>(t);
    if (t_us / kLcEpochUs != epoch) {
      epoch = t_us / kLcEpochUs;
      for (std::uint32_t i = 0; i < kLcFiles; ++i) {
        rank_to_file[i] = i;
      }
      rng.shuffle(rank_to_file);
    }
    const std::size_t rank = zipf.sample(rng);
    arrivals.push_back(Arrival{t_us, rank_to_file[rank - 1],
                               static_cast<std::uint32_t>(rng.uniform_int(0, kActiveNodes - 1)),
                               false});
  }
  const double gen_s = seconds_since(gen_start);
  ep.setup_s = seconds_since(setup_start);

  PeriodLoop d(*w, tracer, ep);
  Clients clients(*w, tracer, o.seed);
  const std::vector<hdfs::NodeId> active = active_set();
  ArrivalChain chain(*w, std::move(arrivals), [&](const Arrival& a) {
    clients.read(active[a.client], files[a.file]);
  });
  chain.arm();
  sim::Rng burst_rng{o.seed ^ 0x9e3779b97f4a7c15ULL};
  for (const std::int64_t minute : kLcBurstMinutes) {
    w->sim.schedule_at(at_us(minute * 60'000'000), [&] {
      std::vector<hdfs::FileId> encoded;
      for (const hdfs::FileId f : files) {
        if (w->cluster.metadata().find(f)->erasure_coded) {
          encoded.push_back(f);
        }
      }
      burst_rng.shuffle(encoded);
      encoded.resize(std::min(encoded.size(), kLcBurstFiles));
      for (const hdfs::FileId f : encoded) {
        for (std::size_t r = 0; r < kLcBurstReads; ++r) {
          const hdfs::NodeId client = clients.serving_node();
          w->sim.schedule_after(sim::seconds(burst_rng.uniform_real(0.0, kLcBurstSpanS)),
                                [&clients, client, f] { clients.read(client, f); });
        }
      }
    });
  }

  const std::uint64_t feed0 = w->mgr.feed().events_ingested();
  d.start_clock();
  const auto run_start = Clock::now();
  const std::int64_t ticks =
      run_periods(d, 0, kLcTicks, [&] { return clients.outstanding() == 0; });
  const double wall_s = seconds_since(run_start) - ep.cal_s();
  const double sim_s = static_cast<double>(ticks * kPeriodUs) / 1e6;
  finish(ep, *w, d, clients, tracer, wall_s, sim_s, w->mgr.feed().events_ingested() - feed0,
         gen_s);
  const core::ErmsStats& st = w->mgr.stats();
  ep.check(st.hot_promotions > 0, "lifecycle floor: a hot promotion");
  ep.check(st.cooldowns > 0, "lifecycle floor: a cooldown");
  ep.check(st.encodes_cooling > 0, "lifecycle floor: a cooling-band encode");
  ep.check(st.encodes_frozen > 0, "lifecycle floor: a frozen-band encode");
  ep.check(st.decodes > 0, "lifecycle floor: a decode");
  ep.check(w->mgr.standby().commissions() > 0, "lifecycle floor: a standby commission");
  return ep;
}

// ---------------------------------------------------------------------------
// writes_failures

constexpr std::size_t kWfFiles = 800;
constexpr std::size_t kWfEncodedPerCodec = 16;
constexpr std::uint64_t kWfFileBytes = 256 * kMiB;  // four 64 MiB blocks
constexpr std::uint64_t kWfWriteBytes = 128 * kMiB;
constexpr double kWfReadsPerS = 2.0;
constexpr double kWfWritesPerS = 0.75;
constexpr std::int64_t kWfTicks = 200;
constexpr std::int64_t kWfFaultStartUs = 2LL * 60 * 1'000'000;
/// Faults stop this long before the horizon, so every planned recovery
/// (downtime at most 3 min) fires before it.
constexpr std::int64_t kWfFaultQuietUs = 15LL * 60 * 1'000'000;

const ec::CodecSpec kWfCodecs[] = {
    ec::CodecSpec{ec::CodecKind::kRs, 4, 0, 0},
    ec::CodecSpec{ec::CodecKind::kAzureLrc, 0, 2, 2},
    ec::CodecSpec{ec::CodecKind::kHitchhikerXorPlus, 4, 0, 0},
};

core::ErmsConfig writes_failures_config() {
  core::ErmsConfig c;
  c.thresholds.window = sim::seconds(60.0);
  c.judge_shards = 1;
  c.sweep_threads = 1;
  c.judge_batch_flush_events = kFlushEvents;
  return c;
}

/// True when `node` holds the only live replica of a block of a replicated
/// file — in this workload, a block whose write pipeline has landed one hop
/// so far.
bool holds_last_replica(const hdfs::Cluster& c, hdfs::NodeId node) {
  for (const hdfs::BlockId b : c.node(node).blocks) {
    const hdfs::BlockInfo* block = c.metadata().find_block(b);
    const hdfs::FileInfo* file = block != nullptr ? c.metadata().find(block->file) : nullptr;
    if (file != nullptr && !file->erasure_coded && c.locations_view(b).size() == 1) {
      return true;
    }
  }
  return false;
}

/// Applies one planned fault the way fault::FaultInjector does, with a span
/// around Cluster::fail_node. Like the plan's max_concurrent_dead bound, a
/// crash is skipped when it would take a block's last replica: the schedule
/// stays inside the data's failure tolerance, so blocks_lost must stay 0.
void apply_fault(World& w, Tracer* tracer, const fault::FaultEvent& ev) {
  const hdfs::NodeId node{ev.target};
  switch (ev.kind) {
    case fault::FaultKind::kCrash:
      if (w.cluster.node(node).state != hdfs::NodeState::kDead &&
          w.cluster.node(node).state != hdfs::NodeState::kStandby &&
          !holds_last_replica(w.cluster, node)) {
        const Span span(tracer, Layer::kFailNode);
        w.cluster.fail_node(node);
      }
      break;
    case fault::FaultKind::kRecover:
      w.cluster.revive_node(node);
      break;
    case fault::FaultKind::kSlowNode:
      w.cluster.network().set_node_degradation(ev.target, ev.factor);
      break;
    case fault::FaultKind::kRestoreNode:
      w.cluster.network().set_node_degradation(ev.target, 1.0);
      break;
    case fault::FaultKind::kDegradeRack:
      w.cluster.network().set_rack_degradation(ev.target, ev.factor);
      break;
    case fault::FaultKind::kRestoreRack:
      w.cluster.network().set_rack_degradation(ev.target, 1.0);
      break;
    case fault::FaultKind::kAbortFlows:
      w.cluster.network().abort_flows_touching(ev.target);
      break;
  }
}

/// Blocks below their target: data replicas for replicated files, one live
/// copy of every data and parity shard for erasure-coded ones.
std::size_t under_replicated(const hdfs::Cluster& c) {
  std::size_t under = 0;
  const auto live = [&c](hdfs::BlockId b) {
    std::size_t n = 0;
    for (const hdfs::NodeId node : c.locations_view(b)) {
      n += c.is_serving(node) ? 1 : 0;
    }
    return n;
  };
  for (const hdfs::FileId f : c.metadata().file_ids()) {
    const hdfs::FileInfo* info = c.metadata().find(f);
    const std::size_t want = info->erasure_coded ? 1 : info->replication;
    for (const hdfs::BlockId b : info->blocks) {
      under += live(b) < want ? 1 : 0;
    }
    for (const hdfs::BlockId b : info->parity_blocks) {
      under += live(b) < 1 ? 1 : 0;
    }
  }
  return under;
}

Episode writes_failures_episode(const Options& o, Tracer* tracer) {
  Episode ep;
  const auto setup_start = Clock::now();
  auto w = std::make_unique<World>(writes_failures_config(), o.seed);
  std::vector<hdfs::FileId> files;
  for (std::size_t i = 0; i < kWfFiles; ++i) {
    const auto id = w->cluster.populate_file("/wf/f" + std::to_string(i), kWfFileBytes, 3);
    ep.check(id.has_value(), "populate created every file");
    files.push_back(id.value_or(hdfs::FileId{0}));
  }
  // Pre-encode a slice of the files with each code, through the simulated
  // encode path (reads to an encoder, parity writes), before the clock runs.
  std::size_t encodes_done = 0;
  bool encodes_ok = true;
  for (std::size_t c = 0; c < std::size(kWfCodecs); ++c) {
    for (std::size_t i = 0; i < kWfEncodedPerCodec; ++i) {
      const auto id = w->cluster.populate_file(
          "/wf/ec" + std::to_string(c) + "-" + std::to_string(i), kWfFileBytes, 3);
      files.push_back(id.value_or(hdfs::FileId{0}));
      w->cluster.encode_file(files.back(), kWfCodecs[c], [&](bool ok) {
        ++encodes_done;
        encodes_ok = encodes_ok && ok;
      });
    }
  }
  const std::size_t encodes_wanted = std::size(kWfCodecs) * kWfEncodedPerCodec;
  while (encodes_done < encodes_wanted && w->sim.step()) {
  }
  ep.check(encodes_done == encodes_wanted && encodes_ok, "setup encodes complete");
  const std::int64_t start_us = (w->sim.now().micros() / kPeriodUs + 1) * kPeriodUs;

  const auto gen_start = Clock::now();
  sim::Rng rng{o.seed};
  const std::int64_t horizon_us = start_us + kWfTicks * kPeriodUs;
  std::vector<Arrival> arrivals;
  const double rate = kWfReadsPerS + kWfWritesPerS;
  std::uint32_t writes = 0;
  for (double t = static_cast<double>(start_us) + rng.exponential(1.0 / rate) * 1e6;
       t < static_cast<double>(horizon_us); t += rng.exponential(1.0 / rate) * 1e6) {
    const bool write = rng.chance(kWfWritesPerS / rate);
    arrivals.push_back(Arrival{
        static_cast<std::int64_t>(t),
        write ? writes++
              : static_cast<std::uint32_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(files.size()) - 1)),
        static_cast<std::uint32_t>(rng.uniform_int(0, kActiveNodes - 1)), write});
  }
  fault::ChaosOptions chaos;
  chaos.start = at_us(start_us + kWfFaultStartUs);
  chaos.end = at_us(horizon_us - kWfFaultQuietUs);
  for (const hdfs::NodeId n : active_set()) {
    chaos.victims.push_back(n.value());
  }
  chaos.max_concurrent_dead = 1;
  const fault::FaultPlan plan = fault::FaultPlan::randomized(chaos, o.seed);
  const double gen_s = seconds_since(gen_start);
  ep.setup_s = seconds_since(setup_start);

  PeriodLoop d(*w, tracer, ep);
  Clients clients(*w, tracer, o.seed);
  const std::vector<hdfs::NodeId> active = active_set();
  ArrivalChain chain(*w, std::move(arrivals), [&](const Arrival& a) {
    if (a.write) {
      clients.write("/wf/w" + std::to_string(a.file), kWfWriteBytes);
    } else {
      clients.read(active[a.client], files[a.file]);
    }
  });
  chain.arm();
  for (const fault::FaultEvent& ev : plan.events()) {
    w->sim.schedule_at(ev.at, [&w, tracer, ev] { apply_fault(*w, tracer, ev); });
  }

  const std::uint64_t feed0 = w->mgr.feed().events_ingested();
  const std::uint64_t events0 = w->sim.events_executed();
  d.start_clock();
  const auto run_start = Clock::now();
  const auto drained = [&] {
    if (clients.outstanding() != 0 || !w->cluster.background_idle() ||
        w->cluster.network().active_flows() != 0) {
      return false;
    }
    for (const hdfs::NodeId n : w->cluster.nodes()) {
      if (w->cluster.node(n).state == hdfs::NodeState::kDead) {
        return false;
      }
    }
    return true;
  };
  const std::int64_t ticks = run_periods(d, start_us, kWfTicks, drained);
  const double wall_s = seconds_since(run_start) - ep.cal_s();
  const double sim_s = static_cast<double>(ticks * kPeriodUs) / 1e6;
  finish(ep, *w, d, clients, tracer, wall_s, sim_s, w->mgr.feed().events_ingested() - feed0,
         gen_s);
  ep.check(w->sim.events_executed() > events0, "simulation ran");
  ep.check(w->cluster.rereplications_completed() > 0, "failures drove re-replication");
  ep.check(drained(), "cluster drained after the horizon");
  ep.check(under_replicated(w->cluster) == 0, "every block back at its target replication");
  return ep;
}

}  // namespace

int run_lifecycle_skewed(const Options& options) {
  const Params params = {
      {"nodes", std::to_string(kRacks * kNodesPerRack)},
      {"standby_pool", std::to_string(kRacks * kStandbyPerRack)},
      {"files", std::to_string(kLcFiles)},
      {"file_bytes", std::to_string(kLcFileBytes)},
      {"reads_per_sim_s", std::to_string(kLcReadsPerS)},
      {"zipf_exponent", std::to_string(kLcZipf)},
      {"epoch_s", std::to_string(kLcEpochUs / 1'000'000)},
      {"ticks", std::to_string(kLcTicks)},
      {"cold_age_s", std::to_string(kLcColdAgeS)},
      {"frozen_age_s", std::to_string(kLcColdAgeS + 15)},
      {"idle_flow_threshold", "1024"},
      {"judge_shards", "1"},
      {"sweep_threads", "1"},
      {"judge_batch_flush_events", std::to_string(kFlushEvents)},
  };
  return run_episodes(options, params, lifecycle_episode);
}

int run_writes_failures(const Options& options) {
  const Params params = {
      {"nodes", std::to_string(kRacks * kNodesPerRack)},
      {"standby_pool", std::to_string(kRacks * kStandbyPerRack)},
      {"files", std::to_string(kWfFiles)},
      {"encoded_files", std::to_string(std::size(kWfCodecs) * kWfEncodedPerCodec)},
      {"file_bytes", std::to_string(kWfFileBytes)},
      {"write_bytes", std::to_string(kWfWriteBytes)},
      {"reads_per_sim_s", std::to_string(kWfReadsPerS)},
      {"writes_per_sim_s", std::to_string(kWfWritesPerS)},
      {"ticks", std::to_string(kWfTicks)},
      {"max_concurrent_dead", "1"},
      {"judge_shards", "1"},
      {"sweep_threads", "1"},
      {"judge_batch_flush_events", std::to_string(kFlushEvents)},
  };
  return run_episodes(options, params, writes_failures_episode);
}

}  // namespace ermsbench
