// replay_uniform: the metadata plane with a working set larger than cache.
// ~1k nodes and 500k one-block files; a uniform in-process audit stream
// (1/4 open, 3/4 read) at 10k events per sim-second goes straight into the
// Data Judge's feed through AccessStatsFeed::on_audit_batch, the judge
// evaluates every 30 sim-seconds, and thresholds keep every file normal.
// The four standing queries then hold ~2M window groups, far more than the
// last-level cache, so audit/feed/CEP/judge do all the work and the network,
// Condor and EC none. Each episode ends with one world snapshot save +
// restore at the last sweep boundary.
#include <algorithm>
#include <memory>
#include <string>
#include <string_view>

#include "core/erms.h"
#include "hdfs/cluster.h"
#include "sim/random.h"
#include "snapshot/world.h"
#include "workloads.h"

namespace ermsbench {
namespace {

namespace core = erms::core;
namespace hdfs = erms::hdfs;
namespace sim = erms::sim;

constexpr std::size_t kRacks = 25;
constexpr std::size_t kNodesPerRack = 40;
constexpr std::uint64_t kFiles = 500'000;
constexpr std::uint64_t kFileBytes = 8ULL << 20;  // one block per file
constexpr std::int64_t kEventGapUs = 100;         // 10k events per sim-second
constexpr std::uint64_t kEventsPerTick = 300'000;  // one 30 s evaluation period
constexpr std::uint64_t kWarmTicks = 2;            // fill the 60 s window first
constexpr std::uint64_t kMeasuredTicks = 5;
constexpr std::uint64_t kGenBatch = 32'768;
constexpr std::size_t kFlushEvents = 256;

/// O(replicas) placement for bulk ingest: probe from a hash of the block id
/// with a stride, instead of the default policy's O(nodes) rack-aware scan.
class StridePlacement final : public hdfs::PlacementPolicy {
 public:
  [[nodiscard]] std::vector<hdfs::NodeId> choose_targets(
      const hdfs::Cluster& cluster, hdfs::BlockId block, std::size_t count,
      std::optional<hdfs::NodeId> /*writer*/, sim::Rng& /*rng*/) const override {
    const std::uint64_t n = cluster.node_count();
    std::uint64_t h = block.value() * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 31;
    // gcd(stride, 1000 nodes) <= 50, so a probe cycle spans >= 20 nodes.
    const std::uint64_t stride = 1 + (h >> 40) % 89;
    std::vector<hdfs::NodeId> chosen;
    for (std::uint64_t at = h % n, probe = 0; chosen.size() < count && probe < 4 * n;
         at = (at + stride) % n, ++probe) {
      const hdfs::NodeId cand{static_cast<std::uint32_t>(at)};
      if (cluster.is_serving(cand) &&
          std::find(chosen.begin(), chosen.end(), cand) == chosen.end()) {
        chosen.push_back(cand);
      }
    }
    return chosen;
  }

  [[nodiscard]] std::optional<hdfs::NodeId> choose_replica_to_remove(
      const hdfs::Cluster& cluster, hdfs::BlockId block, sim::Rng& /*rng*/) const override {
    const auto& locs = cluster.locations_view(block);
    if (locs.empty()) {
      return std::nullopt;
    }
    return locs[locs.size() - 1];
  }

  [[nodiscard]] std::string name() const override { return "bench-stride"; }
};

core::ErmsConfig erms_config() {
  core::ErmsConfig c;
  c.thresholds.window = sim::seconds(60.0);
  // Keep every verdict "normal": a uniform 10k events/s stream would trip
  // formula (4) on every node at the default τ_DN and turn the metadata
  // bench into an action storm.
  c.thresholds.tau_M = 1e12;
  c.thresholds.M_M = 1e12;
  c.thresholds.M_m = 1e11;
  c.thresholds.tau_DN = 1e15;
  c.manage_standby_power = false;
  c.heal_capacity = false;
  c.judge_shards = 1;
  c.sweep_threads = 1;
  c.judge_batch_flush_events = kFlushEvents;
  return c;
}

/// Cluster + manager of one episode. The manager is never start()ed: the
/// stream bypasses the cluster's audit sink and the harness calls
/// evaluate() at each period boundary itself.
struct World {
  World()
      : topo(hdfs::Topology::uniform(kRacks, kNodesPerRack)),
        cluster(sim, topo, hdfs::ClusterConfig{}),
        erms(cluster, /*standby_pool=*/{}, erms_config()) {
    cluster.set_placement_policy(std::make_shared<StridePlacement>());
  }
  [[nodiscard]] erms::snapshot::WorldParts parts() {
    return erms::snapshot::WorldParts{&sim, &cluster, &erms, nullptr, nullptr};
  }

  sim::Simulation sim;
  hdfs::Topology topo;
  hdfs::Cluster cluster;
  core::ErmsManager erms;
};

Episode replay_episode(const Options& o, Tracer* tracer) {
  Episode ep;
  const auto setup_start = Clock::now();
  auto world = std::make_unique<World>();
  {
    // Serial, like every timed part of the benchmark: on a shared host a
    // pool's speed-up varies with the neighbours' load.
    std::vector<hdfs::Namespace::FileSpec> specs(kFiles);
    for (std::uint64_t i = 0; i < kFiles; ++i) {
      specs[i].path = "/r/f" + std::to_string(i);
      specs[i].size = kFileBytes;
      specs[i].block_size = kFileBytes;
      specs[i].replication = 3;
    }
    for (const auto& id : world->cluster.populate_files(specs)) {
      ep.check(id.has_value(), "populate created every file");
    }
  }
  // Per-fid tables so the stream generator never touches the namespace.
  std::vector<std::string_view> path_of(kFiles + 1);
  std::vector<std::int64_t> block_of(kFiles + 1);
  std::vector<std::int64_t> node_of(kFiles + 1);
  for (std::uint64_t f = 1; f <= kFiles; ++f) {
    const hdfs::FileInfo* info =
        world->cluster.metadata().find(hdfs::FileId{static_cast<std::uint32_t>(f)});
    path_of[f] = info->path;
    block_of[f] = static_cast<std::int64_t>(info->blocks[0].value());
    node_of[f] = static_cast<std::int64_t>(
        world->cluster.locations_view(info->blocks[0])[0].value());
  }
  std::vector<erms::audit::AuditEvent> buf(kGenBatch);
  ep.setup_s = seconds_since(setup_start);

  erms::judge::AccessStatsFeed& feed = world->erms.feed();
  sim::Rng rng{o.seed};
  std::int64_t t_us = 0;
  double gen_s = 0.0;
  double measured_s = 0.0;  // measured ticks, generation excluded
  std::vector<double> tick_ms;
  std::vector<double> sweep_ms;
  double evict_s = 0.0;
  double push_before = 0.0;
  double self_before = 0.0;
  for (std::uint64_t tick = 1; tick <= kWarmTicks + kMeasuredTicks; ++tick) {
    if (tracer != nullptr && tick == kWarmTicks + 1) {
      push_before = tracer->total_s(Layer::kFeedPush);
      self_before = tracer->self_s_except(Layer::kSimStep);
    }
    const bool measured = tick > kWarmTicks;
    double tick_gen_s = 0.0;
    double wall_s = 0.0;  // this period's ingest + sweep, generation excluded
    for (std::uint64_t left = kEventsPerTick; left > 0;) {
      const std::uint64_t n = std::min(kGenBatch, left);
      const auto g0 = Clock::now();
      for (std::uint64_t i = 0; i < n; ++i) {
        erms::audit::AuditEvent& e = buf[i];
        const auto fid = static_cast<std::uint64_t>(rng.uniform_int(1, kFiles));
        t_us += kEventGapUs;
        e.time = sim::SimTime{t_us};
        e.fid = static_cast<std::int64_t>(fid);
        e.src.assign(path_of[fid]);
        if ((rng.next_u64() & 3) == 0) {
          e.cmd = "open";
          e.block.reset();
          e.datanode.reset();
        } else {
          e.cmd = "read";
          e.block = block_of[fid];
          e.datanode = node_of[fid];
        }
      }
      tick_gen_s += seconds_since(g0);
      const auto p0 = Clock::now();
      {
        const Span span(tracer, Layer::kFeedPush);
        feed.on_audit_batch(buf.data(), n);
      }
      const double push_s = seconds_since(p0);
      wall_s += push_s;
      if (measured) {
        ep.add_unit(push_s);
      }
      left -= n;
    }
    const auto b0 = Clock::now();
    const sim::SimTime now{t_us};
    world->sim.run_until(now);
    {
      const auto e0 = Clock::now();
      const Span span(tracer, Layer::kCepEvict);
      feed.advance_to(now);
      evict_s += measured ? seconds_since(e0) : 0.0;
    }
    const auto s0 = Clock::now();
    {
      const Span span(tracer, Layer::kJudgeSweep);
      world->erms.evaluate();
    }
    const double sweep_s = seconds_since(s0);
    const double boundary_s = seconds_since(b0);
    wall_s += boundary_s;
    if (measured) {
      ep.add_unit(boundary_s);
      gen_s += tick_gen_s;
      measured_s += wall_s;
      tick_ms.push_back(1e3 * wall_s);
      sweep_ms.push_back(1e3 * sweep_s);
    }
  }
  const double sim_s = static_cast<double>(kMeasuredTicks * kEventsPerTick * kEventGapUs) / 1e6;
  const auto measured_events = static_cast<double>(kMeasuredTicks * kEventsPerTick);
  ep.attempted = feed.events_ingested();
  ep.ops = measured_events;
  ep.values["events_per_s"] = measured_events / measured_s;
  ep.values["sim_speed"] = sim_s / measured_s;
  ep.values["tick_p50_ms"] = median(tick_ms);
  ep.values["tick_p95_ms"] = quantile(tick_ms, 0.95);
  ep.values["tick_samples"] = static_cast<double>(tick_ms.size());
  ep.values["rss_b_per_file"] =
      static_cast<double>(current_rss_bytes()) / static_cast<double>(kFiles);
  ep.values["fail_ratio"] = 0.0;
  ep.check(feed.events_ingested() == (kWarmTicks + kMeasuredTicks) * kEventsPerTick,
           "feed ingested every generated event");
  ep.check(world->erms.stats().evaluations == kWarmTicks + kMeasuredTicks,
           "one judge sweep per period");
  ep.check(world->erms.tracked_file_count() == kFiles, "judge classified every file");
  ep.check(world->erms.stats().hot_promotions == 0 && world->erms.stats().encodes == 0,
           "every file stays normal");
  if (tracer != nullptr) {
    const double push_s = tracer->total_s(Layer::kFeedPush) - push_before;
    ep.values["judge.feed_push_s"] = push_s;
    ep.values["judge.feed_push_ns_per_event"] = 1e9 * push_s / measured_events;
    // Timed share of the measured ticks' wall (generation excluded from
    // both): feed push + eviction + sweep.
    ep.values["bench.attributed_share"] =
        (tracer->self_s_except(Layer::kSimStep) - self_before) / measured_s;
    ep.values["cep.evict_ms_per_tick"] = 1e3 * evict_s / static_cast<double>(kMeasuredTicks);
    ep.values["cep.window_groups"] = static_cast<double>(window_groups(feed));
    ep.values["judge.sweep_ms_p50"] = median(sweep_ms);
    ep.values["judge.sweep_ms_max"] = *std::max_element(sweep_ms.begin(), sweep_ms.end());
    ep.values["bench.gen_s"] = gen_s;
  }

  // Restart: save at the last sweep boundary (a quiescent point: no flows,
  // no jobs) and restore into a fresh world of the same shape.
  Digest digest;
  const core::ErmsStats stats = world->erms.stats();
  digest.add(feed.events_ingested()).add(stats.evaluations).add(stats.hot_promotions);
  digest.add(stats.cooldowns).add(stats.encodes).add(world->erms.tracked_file_count());
  std::vector<std::uint64_t> probe;
  for (std::uint32_t f = 1; f <= 64; ++f) {
    probe.push_back(feed.file_accesses(hdfs::FileId{f}));
  }
  const auto save0 = Clock::now();
  std::string bytes;
  {
    const Span span(tracer, Layer::kSnapshot);
    bytes = erms::snapshot::save_world_bytes(world->parts());
  }
  const double save_s = seconds_since(save0);
  world.reset();
  auto restored = std::make_unique<World>();
  const auto load0 = Clock::now();
  erms::snapshot::SnapshotResult err;
  {
    const Span span(tracer, Layer::kSnapshot);
    err = erms::snapshot::restore_world_bytes(bytes, restored->parts());
  }
  const double load_s = seconds_since(load0);
  ep.check(!err, "snapshot restores");
  if (!err) {
    const erms::judge::AccessStatsFeed& feed2 = restored->erms.feed();
    ep.check(restored->cluster.metadata().file_count() == kFiles, "restore keeps every file");
    ep.check(feed2.events_ingested() == (kWarmTicks + kMeasuredTicks) * kEventsPerTick,
             "restore keeps the feed's ingest count");
    bool same = true;
    for (std::uint32_t f = 1; f <= 64; ++f) {
      same = same && feed2.file_accesses(hdfs::FileId{f}) == probe[f - 1];
    }
    ep.check(same, "restore keeps windowed counts");
  }
  for (const std::uint64_t p : probe) {
    digest.add(p);
  }
  ep.digest = digest.add(bytes.size()).value();
  ep.values["restart_s"] = save_s + load_s;
  if (tracer != nullptr) {
    ep.values["snapshot.save_ms"] = 1e3 * save_s;
    ep.values["snapshot.load_ms"] = 1e3 * load_s;
    ep.values["snapshot.bytes"] = static_cast<double>(bytes.size());
  }
  return ep;
}

}  // namespace

std::uint64_t window_groups(const erms::judge::AccessStatsFeed& feed) {
  std::uint64_t groups = 0;
  feed.for_each_file_access([&](hdfs::FileId, std::uint64_t) { ++groups; },
                            erms::cep::GroupOrder::kUnordered);
  feed.for_each_block_access([&](hdfs::FileId, std::int64_t, std::uint64_t) { ++groups; },
                             erms::cep::GroupOrder::kUnordered);
  feed.for_each_node_access([&](std::int64_t, std::uint64_t) { ++groups; });
  feed.for_each_file_node_access(
      [&](hdfs::FileId, std::int64_t, std::uint64_t) { ++groups; });
  return groups;
}

int run_replay_uniform(const Options& options) {
  const Params params = {
      {"nodes", std::to_string(kRacks * kNodesPerRack)},
      {"files", std::to_string(kFiles)},
      {"file_bytes", std::to_string(kFileBytes)},
      {"events_per_sim_s", std::to_string(1'000'000 / kEventGapUs)},
      {"warm_ticks", std::to_string(kWarmTicks)},
      {"measured_ticks", std::to_string(kMeasuredTicks)},
      {"events_per_tick", std::to_string(kEventsPerTick)},
      {"judge_shards", "1"},
      {"sweep_threads", "1"},
      {"judge_batch_flush_events", std::to_string(kFlushEvents)},
      {"namespace_shards", "1"},
  };
  return run_episodes(options, params, replay_episode);
}

}  // namespace ermsbench
