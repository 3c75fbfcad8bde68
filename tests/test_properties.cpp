// Property-style test sweeps across modules: randomized inputs, invariant
// checks, parameterized over seeds and configuration axes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>

#include "cep/window.h"
#include "condor/scheduler.h"
#include "core/erms_placement.h"
#include "core/standby.h"
#include "hdfs/cluster.h"
#include "net/network.h"

namespace erms {
namespace {

using hdfs::BlockId;
using hdfs::Cluster;
using hdfs::ClusterConfig;
using hdfs::FileId;
using hdfs::FileInfo;
using hdfs::NodeId;
using hdfs::Topology;
using util::MiB;

// ---------- placement invariants ----------

/// Axes: (seed, replication target, use ERMS policy with commissioned pool).
using PlacementParam = std::tuple<std::uint64_t, std::uint32_t, bool>;

class PlacementInvariants : public ::testing::TestWithParam<PlacementParam> {};

TEST_P(PlacementInvariants, DistinctNodesCapacityAndPoolRules) {
  const auto [seed, rep, erms_policy] = GetParam();
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.seed = seed;
  Cluster cluster{sim, Topology::uniform(3, 6), cfg};

  std::vector<NodeId> pool;
  std::shared_ptr<core::ErmsPlacementPolicy> policy;
  std::unique_ptr<core::StandbyManager> standby;
  if (erms_policy) {
    for (std::uint32_t n = 10; n < 18; ++n) {
      pool.push_back(NodeId{n});
    }
    policy = std::make_shared<core::ErmsPlacementPolicy>(
        std::set<NodeId>(pool.begin(), pool.end()), 3);
    cluster.set_placement_policy(policy);
    standby = std::make_unique<core::StandbyManager>(cluster, pool);
    standby->ensure_commissioned(pool.size());
    sim.run();
  }

  std::vector<FileId> files;
  for (int i = 0; i < 8; ++i) {
    files.push_back(*cluster.populate_file("/p" + std::to_string(i),
                                           (64 + 64 * (i % 4)) * MiB, 3));
  }
  // Elastic cycle on half the files.
  for (std::size_t i = 0; i < files.size(); i += 2) {
    cluster.change_replication(files[i], rep, Cluster::IncreaseMode::kDirect, nullptr);
  }
  sim.run();

  for (std::size_t i = 0; i < files.size(); ++i) {
    const FileInfo* info = cluster.metadata().find(files[i]);
    const std::uint32_t want = (i % 2 == 0) ? rep : 3;
    EXPECT_EQ(info->replication, want);
    for (const BlockId b : info->blocks) {
      const auto locs = cluster.locations(b);
      // Replication satisfied exactly (cluster has enough nodes).
      EXPECT_EQ(locs.size(), want) << "file " << i;
      // No duplicates.
      const std::set<NodeId> distinct(locs.begin(), locs.end());
      EXPECT_EQ(distinct.size(), locs.size());
      // Pool rule: at most rep-3 replicas on the pool, base on actives.
      if (erms_policy) {
        std::size_t on_pool = 0;
        for (const NodeId n : locs) {
          on_pool += policy->in_standby_pool(n) ? 1 : 0;
        }
        EXPECT_LE(on_pool, want > 3 ? want - 3 : 0u);
      }
    }
  }
  // Capacity invariant holds everywhere.
  for (const NodeId n : cluster.nodes()) {
    EXPECT_LE(cluster.node(n).used_bytes, cluster.node(n).config.capacity_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlacementInvariants,
    ::testing::Combine(::testing::Values(1u, 7u, 23u), ::testing::Values(5u, 8u, 10u),
                       ::testing::Bool()));

// ---------- replication churn converges ----------

class ReplicationChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplicationChurn, RandomSequenceEndsConsistent) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.seed = GetParam();
  Cluster cluster{sim, Topology::uniform(3, 6), cfg};
  sim::Rng rng{GetParam() * 31 + 1};

  const FileId file = *cluster.populate_file("/churn", 256 * MiB, 3);
  for (int step = 0; step < 12; ++step) {
    const auto target = static_cast<std::uint32_t>(rng.uniform_int(1, 9));
    const auto mode = rng.chance(0.8) ? Cluster::IncreaseMode::kDirect
                                      : Cluster::IncreaseMode::kOneByOne;
    cluster.change_replication(file, target, mode, nullptr);
    sim.run();
    const FileInfo* info = cluster.metadata().find(file);
    ASSERT_EQ(info->replication, target);
    for (const BlockId b : info->blocks) {
      const auto locs = cluster.locations(b);
      EXPECT_EQ(locs.size(), target) << "step " << step;
      EXPECT_EQ(std::set<NodeId>(locs.begin(), locs.end()).size(), locs.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationChurn, ::testing::Values(3u, 11u, 42u, 99u));

// ---------- erasure recoverability matches the shard-count rule ----------

class ErasureFailures : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ErasureFailures, AvailabilityIffEnoughShards) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.seed = GetParam();
  Cluster cluster{sim, Topology::uniform(3, 6), cfg};
  const FileId file = *cluster.populate_file("/ec", 512 * MiB, 3);  // k = 8
  cluster.encode_file(file, 4, nullptr);
  sim.run();

  sim::Rng rng{GetParam() + 5};
  // Fail a random subset of nodes and check file_available against the
  // ground truth computed from surviving shard counts.
  std::vector<NodeId> nodes = cluster.nodes();
  rng.shuffle(nodes);
  const auto kill = static_cast<std::size_t>(rng.uniform_int(1, 8));
  for (std::size_t i = 0; i < kill; ++i) {
    // Note: no sim.run() — recovery must not kick in before we check.
    cluster.fail_node(nodes[i]);
  }
  const FileInfo* info = cluster.metadata().find(file);
  std::size_t live = 0;
  auto alive = [&](BlockId b) {
    for (const NodeId n : cluster.locations(b)) {
      if (cluster.is_serving(n)) {
        return true;
      }
    }
    return false;
  };
  for (const BlockId b : info->blocks) {
    live += alive(b) ? 1 : 0;
  }
  for (const BlockId b : info->parity_blocks) {
    live += alive(b) ? 1 : 0;
  }
  EXPECT_EQ(cluster.file_available(file), live >= info->blocks.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErasureFailures,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------- network: random fabrics are max-min fair ----------

class NetworkFairness : public ::testing::TestWithParam<std::uint64_t> {};

/// Checks the max-min definition directly, after every start, cancel, abort,
/// completion and degradation change: no link carries more than its
/// capacity, no flow runs above its cap, and every flow either runs at its
/// cap or crosses a saturated link on which no flow runs faster. Each flow's
/// links are rebuilt here from the path rules NetworkModel documents.
TEST_P(NetworkFairness, SharesNeverExceedLinkCapacity) {
  sim::Rng rng{GetParam()};
  net::FabricSpec spec;
  spec.rack_count = static_cast<std::size_t>(rng.uniform_int(1, 4));
  spec.rack_uplink_bw = rng.uniform_real(50e6, 400e6);
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(4, 16));
  for (std::size_t i = 0; i < nodes; ++i) {
    net::FabricSpec::Node n;
    n.rack = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.rack_count) - 1));
    n.nic_bw = rng.uniform_real(50e6, 200e6);
    n.disk_bw = rng.uniform_real(30e6, 120e6);
    spec.nodes.push_back(n);
  }
  sim::Simulation sim;
  net::NetworkModel netm{sim, spec};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };

  // Test-side links: per node disk, nic_out, nic_in; then per rack uplink
  // out, uplink in.
  std::vector<double> node_factor(nodes, 1.0);
  std::vector<double> rack_factor(spec.rack_count, 1.0);
  const auto capacity = [&](std::size_t link) {
    if (link < 3 * nodes) {
      const net::FabricSpec::Node& node = spec.nodes[link / 3];
      return (link % 3 == 0 ? node.disk_bw : node.nic_bw) * node_factor[link / 3];
    }
    return spec.rack_uplink_bw * rack_factor[(link - 3 * nodes) / 2];
  };
  const auto path = [&](std::size_t src, std::size_t dst,
                        const net::NetworkModel::FlowOptions& opts) {
    std::vector<std::size_t> links;
    if (src == dst) {
      links.push_back(3 * src);  // a same-node copy touches one spindle
      return links;
    }
    if (opts.src_disk) {
      links.push_back(3 * src);
    }
    links.push_back(3 * src + 1);
    const std::size_t src_rack = spec.nodes[src].rack;
    const std::size_t dst_rack = spec.nodes[dst].rack;
    if (src_rack != dst_rack) {
      links.push_back(3 * nodes + 2 * src_rack);
      links.push_back(3 * nodes + 2 * dst_rack + 1);
    }
    links.push_back(3 * dst + 2);
    if (opts.dst_disk) {
      links.push_back(3 * dst);
    }
    return links;
  };

  struct Active {
    std::vector<std::size_t> links;
    double cap;
  };
  std::map<net::FlowId, Active> active;
  const auto check = [&](const std::string& when) {
    struct Load {
      double sum{0.0};
      double max{0.0};
    };
    std::map<std::size_t, Load> load;
    for (const auto& [id, flow] : active) {
      const double rate = netm.flow_rate(id);
      EXPECT_GE(rate, 0.0) << when;
      if (flow.cap > 0.0) {
        EXPECT_LE(rate, flow.cap * (1.0 + 1e-9)) << when << ": flow " << id << " above cap";
      }
      for (const std::size_t link : flow.links) {
        load[link].sum += rate;
        load[link].max = std::max(load[link].max, rate);
      }
    }
    for (const auto& [link, l] : load) {
      EXPECT_LE(l.sum, capacity(link) * (1.0 + 1e-9)) << when << ": link " << link;
    }
    for (const auto& [id, flow] : active) {
      const double rate = netm.flow_rate(id);
      bool bottlenecked = flow.cap > 0.0 && rate >= flow.cap * (1.0 - 1e-9);
      for (const std::size_t link : flow.links) {
        const Load& l = load[link];
        bottlenecked = bottlenecked || (l.sum >= capacity(link) * (1.0 - 1e-9) &&
                                        l.max <= rate * (1.0 + 1e-9));
      }
      EXPECT_TRUE(bottlenecked) << when << ": flow " << id << " at " << rate
                                << " B/s has neither its cap nor a bottleneck link";
    }
  };

  const int flows = 40;
  int done = 0;
  int removed = 0;
  std::vector<net::FlowId> started;
  const auto degrade = [&] {
    const double factor = std::array{0.0, 0.3, 0.7, 1.0}[pick(4)];
    if (rng.chance(0.7)) {
      const std::size_t node = pick(nodes);
      node_factor[node] = factor;
      netm.set_node_degradation(node, factor);
    } else {
      const std::size_t rack = pick(spec.rack_count);
      rack_factor[rack] = factor;
      netm.set_rack_degradation(rack, factor);
    }
    check("degrade");
  };
  const auto start = [&] {
    const std::size_t src = pick(nodes);
    const std::size_t dst = rng.chance(0.15) ? src : pick(nodes);
    net::NetworkModel::FlowOptions opts;
    opts.src_disk = rng.chance(0.8);
    opts.dst_disk = rng.chance(0.3);
    opts.max_rate = rng.chance(0.3) ? rng.uniform_real(5e6, 80e6) : 0.0;
    opts.on_abort = [&](net::FlowId id, std::uint64_t) {
      active.erase(id);
      ++removed;
    };
    const auto bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 64)) * MiB;
    const Active flow{path(src, dst, opts), opts.max_rate};
    const net::FlowId id = netm.start_flow(src, dst, bytes, opts, [&](net::FlowId fid) {
      active.erase(fid);
      ++done;
      check("complete");
    });
    active.emplace(id, flow);
    started.push_back(id);
    check("start");
  };
  const auto tear_down = [&] {
    if (started.empty()) {
      return;
    }
    const net::FlowId id = started[pick(started.size())];
    if (rng.chance(0.2)) {
      netm.abort_flows_touching(pick(nodes));
      check("abort_flows_touching");
    } else if (rng.chance(0.5)) {
      netm.abort_flow(id);
      check("abort");
    } else {
      if (active.erase(id) > 0) {
        ++removed;
      }
      netm.cancel_flow(id);
      check("cancel");
    }
  };

  for (int i = 0; i < 3; ++i) {
    degrade();
  }
  for (int i = 0; i < flows; ++i) {
    sim.schedule_at(sim::SimTime{rng.uniform_int(0, 2'000'000)}, start);
  }
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(sim::SimTime{rng.uniform_int(0, 3'000'000)}, tear_down);
    sim.schedule_at(sim::SimTime{rng.uniform_int(0, 3'000'000)}, degrade);
  }
  // Restore the fabric so flows stalled on a zero-capacity link finish.
  sim.schedule_at(sim::SimTime{3'000'001}, [&] {
    for (std::size_t n = 0; n < nodes; ++n) {
      node_factor[n] = 1.0;
      netm.set_node_degradation(n, 1.0);
    }
    for (std::size_t r = 0; r < spec.rack_count; ++r) {
      rack_factor[r] = 1.0;
      netm.set_rack_degradation(r, 1.0);
    }
    check("restore");
  });
  sim.run();
  EXPECT_EQ(done + removed, flows);
  EXPECT_TRUE(active.empty());
  EXPECT_EQ(netm.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkFairness,
                         ::testing::Values(10u, 20u, 30u, 40u, 50u, 60u));

// ---------- scheduler: random job mixes all reach terminal states ----------

class SchedulerChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerChaos, EveryJobTerminatesAndReplayAgrees) {
  sim::Simulation sim;
  condor::Scheduler::Config cfg;
  cfg.max_running = 3;
  condor::Scheduler sched{sim, cfg};
  sim::Rng rng{GetParam()};
  bool idle = false;
  sched.set_idle_probe([&] { return idle; });
  sim.schedule_after(sim::seconds(30.0), [&] { idle = true; });

  sched.register_command(
      "work",
      [&sim, &rng](const classad::ClassAd& ad, std::function<void(bool)> done) {
        const double dur = rng.uniform_real(0.1, 5.0);
        const bool ok = ad.get_int("N").value_or(0) % 5 != 0;
        sim.schedule_after(sim::seconds(dur), [done, ok] { done(ok); });
      },
      [&sim](const classad::ClassAd&, std::function<void()> fin) {
        sim.schedule_after(sim::seconds(0.5), std::move(fin));
      });

  std::vector<condor::JobId> jobs;
  for (int i = 0; i < 40; ++i) {
    classad::ClassAd ad;
    ad.insert_string("Cmd", "work");
    ad.insert_int("N", i);
    const auto cls = rng.chance(0.3) ? condor::JobClass::kWhenIdle
                                     : condor::JobClass::kImmediate;
    jobs.push_back(sched.submit(std::move(ad), cls,
                                static_cast<int>(rng.uniform_int(0, 5))));
  }
  sim.run_until(sim::SimTime{sim::minutes(30.0).micros()});

  const auto replayed = condor::recover_statuses(sched.log());
  for (const condor::JobId id : jobs) {
    const condor::Job* job = sched.find(id);
    ASSERT_NE(job, nullptr);
    EXPECT_TRUE(job->status == condor::JobStatus::kCompleted ||
                job->status == condor::JobStatus::kRolledBack)
        << condor::to_string(job->status);
    EXPECT_EQ(replayed.at(id), job->status);
  }
  EXPECT_EQ(sched.running_count(), 0u);
  EXPECT_EQ(sched.queued_count(), 0u);
}

// Dispatch order against an oracle built from find() and the job log: every
// start picks the first job by (priority descending, JobId ascending) among
// those queued and past their backoff gate, immediate ones only while the
// probe reports busy. Retries, cancels in the queue and in backoff, priority
// ties and idle flips all occur.
TEST_P(SchedulerChaos, DispatchFollowsPriorityThenJobId) {
  sim::Simulation sim;
  condor::Scheduler::Config cfg;
  cfg.max_running = 3;
  cfg.max_retries = 2;
  cfg.retry_backoff = sim::seconds(2.0);
  cfg.retry_backoff_cap = sim::seconds(3.0);
  condor::Scheduler sched{sim, cfg};
  sim::Rng rng{GetParam()};
  bool idle = false;
  sched.set_idle_probe([&] { return idle; });
  // An odd number of flips, so deferred jobs can drain at the end.
  for (int i = 1; i <= 13; ++i) {
    sim.schedule_after(sim::seconds(15.0 * i), [&] { idle = !idle; });
  }

  std::vector<condor::JobId> jobs;
  // A retried job's gate: the time of its latest kRetry record plus the
  // capped doubling for the attempts made by then.
  auto gate_of = [&](condor::JobId id) {
    sim::SimTime gate;
    std::uint32_t attempts = 0;
    for (const condor::JobLogRecord& rec : sched.log()) {
      if (rec.job != id) continue;
      if (rec.kind == condor::JobLogRecord::Kind::kExecute) ++attempts;
      if (rec.kind == condor::JobLogRecord::Kind::kRetry) {
        sim::SimDuration backoff = cfg.retry_backoff;
        for (std::uint32_t i = 1; i < attempts && backoff < cfg.retry_backoff_cap; ++i) {
          backoff = backoff * 2;
        }
        gate = rec.time + std::min(backoff, cfg.retry_backoff_cap);
      }
    }
    return gate;
  };
  auto first = [](const condor::Job& a, const condor::Job& b) {
    return a.priority != b.priority ? a.priority > b.priority : a.id < b.id;
  };
  std::size_t starts = 0;
  std::size_t backoff_cancels = 0;
  sched.register_command(
      "work",
      [&](const classad::ClassAd&, std::function<void(bool)> done) {
        // start() logs kExecute just before it calls the executor.
        const condor::JobId started = sched.log().back().job;
        const condor::Job& job = *sched.find(started);
        ++starts;
        EXPECT_LE(gate_of(started), sim.now()) << "job " << started << " in backoff";
        if (!idle) {
          EXPECT_EQ(job.sched_class, condor::JobClass::kImmediate) << "job " << started;
        }
        for (const condor::JobId other : jobs) {
          const condor::Job& rival = *sched.find(other);
          if (rival.status != condor::JobStatus::kQueued || gate_of(other) > sim.now() ||
              (!idle && rival.sched_class == condor::JobClass::kWhenIdle)) {
            continue;
          }
          EXPECT_TRUE(first(job, rival))
              << "started " << started << " (priority " << job.priority << ") ahead of "
              << other << " (priority " << rival.priority << ")";
        }
        const bool ok = !rng.chance(0.35);
        const sim::SimDuration run_for = sim::seconds(rng.uniform_real(0.1, 4.0));
        sim.schedule_after(run_for, [&, done, ok, started] {
          done(ok);
          // Some failed attempts are cancelled while they wait out backoff.
          if (!ok && sched.find(started)->status == condor::JobStatus::kQueued &&
              rng.chance(0.3)) {
            sim.schedule_after(sim::seconds(1.0), [&, started] {
              backoff_cancels += sched.cancel(started) ? 1 : 0;
            });
          }
        });
      },
      [&sim](const classad::ClassAd&, std::function<void()> fin) {
        sim.schedule_after(sim::seconds(0.5), std::move(fin));
      });

  // Waves of submissions with priorities 0-3 (many ties); some queued jobs
  // are cancelled before they start.
  for (int wave = 0; wave < 6; ++wave) {
    sim.schedule_after(sim::seconds(20.0 * wave), [&] {
      for (int i = 0; i < 12; ++i) {
        classad::ClassAd ad;
        ad.insert_string("Cmd", "work");
        const auto cls = rng.chance(0.3) ? condor::JobClass::kWhenIdle
                                         : condor::JobClass::kImmediate;
        jobs.push_back(
            sched.submit(std::move(ad), cls, static_cast<int>(rng.uniform_int(0, 3))));
      }
      const condor::JobId victim =
          jobs[jobs.size() - 1 - static_cast<std::size_t>(rng.uniform_int(0, 11))];
      EXPECT_TRUE(sched.cancel(victim));
    });
  }

  const sim::SimTime end{sim::minutes(30.0).micros()};
  while (sim.now() <= end && sim.step()) {
    ASSERT_EQ(sched.queued_count(),
              sched.jobs_in_status(condor::JobStatus::kQueued).size());
  }
  EXPECT_EQ(sched.queued_count(), 0u);
  EXPECT_EQ(sched.running_count(), 0u);
  EXPECT_GT(starts, 0u);
  EXPECT_GT(sched.retries(), 0u);
  EXPECT_GT(backoff_cancels, 0u);
  EXPECT_FALSE(sched.jobs_in_status(condor::JobStatus::kCancelled).empty());
  const auto replayed = condor::recover_statuses(sched.log());
  for (const condor::JobId id : jobs) {
    EXPECT_EQ(replayed.at(id), sched.find(id)->status);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerChaos, ::testing::Values(5u, 15u, 25u, 35u));

// ---------- sliding windows never hold out-of-window events ----------

class WindowInvariant : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowInvariant, ContentsAlwaysInWindow) {
  sim::Rng rng{GetParam()};
  const bool time_window = rng.chance(0.5);
  const double duration_s = rng.uniform_real(1.0, 30.0);
  const auto count = static_cast<std::size_t>(rng.uniform_int(1, 50));
  cep::SlidingWindow window{time_window ? cep::WindowSpec::time(sim::seconds(duration_s))
                                        : cep::WindowSpec::length(count)};
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += rng.uniform_real(0.0, 2.0);
    cep::Event e{sim::SimTime{static_cast<std::int64_t>(t * 1e6)}, "s"};
    window.push(std::move(e), nullptr);
    if (time_window) {
      const sim::SimTime cutoff =
          sim::SimTime{static_cast<std::int64_t>(t * 1e6)} - sim::seconds(duration_s);
      for (const cep::Event& held : window.events()) {
        EXPECT_GT(held.time, cutoff);
      }
    } else {
      EXPECT_LE(window.size(), count);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowInvariant,
                         ::testing::Values(2u, 12u, 22u, 32u, 42u, 52u));

}  // namespace
}  // namespace erms
