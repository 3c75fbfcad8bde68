// End-to-end integration tests: the full ERMS loop (audit → CEP → judge →
// Condor → cluster actions) driven by realistic workloads.
#include <gtest/gtest.h>

#include "core/erms.h"
#include "hdfs/balancer.h"
#include "hdfs/block_scanner.h"
#include "hdfs/cluster.h"
#include "hdfs/failure_detector.h"
#include "mapred/jobrunner.h"
#include "workload/swim.h"

namespace erms {
namespace {

using hdfs::Cluster;
using hdfs::ClusterConfig;
using hdfs::FileInfo;
using hdfs::NodeId;
using hdfs::Topology;
using util::GiB;
using util::MiB;

struct Testbed {
  sim::Simulation sim;
  Topology topo = Topology::uniform(3, 6);
  std::unique_ptr<Cluster> cluster;
  std::vector<NodeId> pool;

  Testbed() {
    cluster = std::make_unique<Cluster>(sim, topo, ClusterConfig{});
    for (std::uint32_t n = 10; n < 18; ++n) {
      pool.push_back(NodeId{n});
    }
  }
};

core::ErmsConfig fast_erms() {
  core::ErmsConfig cfg;
  cfg.thresholds.window = sim::seconds(60.0);
  cfg.thresholds.cold_age = sim::minutes(15.0);
  cfg.evaluation_period = sim::seconds(20.0);
  return cfg;
}

/// The full lifecycle of §I: created → hot → cooled → normal → cold →
/// re-warmed, exercised through the real control loop.
TEST(Lifecycle, HotCooledColdRewarm) {
  Testbed t;
  core::ErmsManager erms{*t.cluster, t.pool, fast_erms()};
  const auto file = t.cluster->populate_file("/life", 128 * MiB, 3);
  erms.start();

  // Phase 1 (0-3 min): heavy access → hot.
  for (int i = 0; i < 300; ++i) {
    t.sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(i * 0.6e6)}, [&t, &file] {
      t.cluster->read_file(NodeId{static_cast<std::uint32_t>(rand() % 10)}, *file,
                           [](const hdfs::ReadOutcome&) {});
    });
  }
  t.sim.run_until(sim::SimTime{sim::minutes(3.0).micros()});
  const FileInfo* info = t.cluster->metadata().find(*file);
  EXPECT_GT(info->replication, 3u) << "hot phase should add replicas";
  const std::uint32_t hot_rep = info->replication;

  // Phase 2 (3-10 min): silence → cooled → back to default replication.
  t.sim.run_until(sim::SimTime{sim::minutes(10.0).micros()});
  info = t.cluster->metadata().find(*file);
  EXPECT_LT(info->replication, hot_rep);
  EXPECT_EQ(info->replication, 3u);

  // Phase 3 (10-30 min): prolonged silence → cold → erasure coded.
  t.sim.run_until(sim::SimTime{sim::minutes(30.0).micros()});
  info = t.cluster->metadata().find(*file);
  EXPECT_TRUE(info->erasure_coded);
  EXPECT_EQ(info->replication, 1u);

  // Phase 4 (30+ min): the file re-heats → decoded and replicated again.
  for (int i = 0; i < 300; ++i) {
    t.sim.schedule_at(
        sim::SimTime{sim::minutes(31.0).micros() + static_cast<std::int64_t>(i * 0.6e6)},
        [&t, &file] {
          t.cluster->read_file(NodeId{static_cast<std::uint32_t>(rand() % 10)}, *file,
                               [](const hdfs::ReadOutcome&) {});
        });
  }
  t.sim.run_until(sim::SimTime{sim::minutes(40.0).micros()});
  info = t.cluster->metadata().find(*file);
  EXPECT_FALSE(info->erasure_coded);
  EXPECT_GE(info->replication, 3u);

  const auto& stats = erms.stats();
  EXPECT_GT(stats.hot_promotions, 0u);
  EXPECT_GT(stats.cooldowns, 0u);
  EXPECT_GT(stats.encodes, 0u);
  EXPECT_GT(stats.decodes, 0u);
  erms.stop();
}

/// ERMS survives node failures mid-flight: data stays available and the
/// control loop keeps functioning.
TEST(FailureInjection, ErmsKeepsClusterAvailable) {
  Testbed t;
  core::ErmsManager erms{*t.cluster, t.pool, fast_erms()};
  std::vector<hdfs::FileId> files;
  for (int i = 0; i < 5; ++i) {
    files.push_back(*t.cluster->populate_file("/f" + std::to_string(i), 256 * MiB, 3));
  }
  erms.start();

  // Background reads + two failures.
  for (int i = 0; i < 200; ++i) {
    t.sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(i * 1.5e6)}, [&t, &files, i] {
      t.cluster->read_file(NodeId{static_cast<std::uint32_t>(i % 10)},
                           files[static_cast<std::size_t>(i) % files.size()],
                           [](const hdfs::ReadOutcome&) {});
    });
  }
  t.sim.schedule_at(sim::SimTime{sim::minutes(1.0).micros()},
                    [&t] { t.cluster->fail_node(NodeId{2}); });
  t.sim.schedule_at(sim::SimTime{sim::minutes(2.0).micros()},
                    [&t] { t.cluster->fail_node(NodeId{7}); });
  t.sim.run_until(sim::SimTime{sim::minutes(10.0).micros()});

  EXPECT_EQ(t.cluster->blocks_lost(), 0u);
  for (const hdfs::FileId f : files) {
    EXPECT_TRUE(t.cluster->file_available(f));
    const FileInfo* info = t.cluster->metadata().find(f);
    for (const hdfs::BlockId b : info->blocks) {
      EXPECT_GE(t.cluster->locations(b).size(), 3u);
    }
  }
  erms.stop();
}

/// A MapReduce workload over ERMS completes and benefits from extra
/// replicas of the hot file.
TEST(MapReduceOverErms, HotFileJobsSpeedUp) {
  auto run = [](bool with_erms) {
    Testbed t;
    std::unique_ptr<core::ErmsManager> erms;
    if (with_erms) {
      core::ErmsConfig cfg = fast_erms();
      cfg.thresholds.tau_M = 4.0;
      erms = std::make_unique<core::ErmsManager>(*t.cluster, t.pool, cfg);
      erms->start();
    } else {
      // Vanilla: all 18 nodes stay active, no manager.
    }
    t.cluster->populate_file("/hot", 512 * MiB, 3);
    mapred::MapRedConfig mr;
    mr.scheduler = mapred::SchedulerKind::kFifo;
    mapred::JobRunner runner{*t.cluster, mr};
    // A steady stream of jobs against the same hot file.
    for (int i = 0; i < 30; ++i) {
      t.sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(i * 10e6)},
                        [&runner] { runner.submit("/hot"); });
    }
    t.sim.run_until(sim::SimTime{sim::minutes(30.0).micros()});
    if (erms) {
      erms->stop();
    }
    return runner.report();
  };
  const auto vanilla = run(false);
  const auto elastic = run(true);
  EXPECT_EQ(vanilla.jobs, 30u);
  EXPECT_EQ(elastic.jobs, 30u);
  // ERMS raises locality for the hot file's tasks.
  EXPECT_GT(elastic.mean_locality, vanilla.mean_locality);
}

/// Storage accounting across the ERMS lifecycle (the Fig. 5 behaviour):
/// extra replicas inflate usage during the hot phase; erasure coding brings
/// cold usage below triplication.
TEST(StorageAccounting, ElasticityShowsInUsedBytes) {
  Testbed t;
  core::ErmsConfig cfg = fast_erms();
  cfg.thresholds.cold_age = sim::minutes(8.0);
  core::ErmsManager erms{*t.cluster, t.pool, cfg};
  const auto file = t.cluster->populate_file("/data", 512 * MiB, 3);
  const std::uint64_t triplicated = t.cluster->used_bytes_total();
  erms.start();

  for (int i = 0; i < 200; ++i) {
    t.sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(i * 0.5e6)}, [&t, &file] {
      t.cluster->read_file(NodeId{3}, *file, [](const hdfs::ReadOutcome&) {});
    });
  }
  t.sim.run_until(sim::SimTime{sim::minutes(4.0).micros()});
  EXPECT_GT(t.cluster->used_bytes_total(), triplicated);

  t.sim.run_until(sim::SimTime{sim::minutes(30.0).micros()});
  EXPECT_LT(t.cluster->used_bytes_total(), triplicated);
  erms.stop();
}

/// Everything-on soak: ERMS control loop + heartbeat failure detection +
/// background block scanner + a MapReduce trace, with a silent node crash
/// and silent replica corruption injected mid-run. The cluster must come out
/// the other side with zero lost blocks, every file available and at its
/// target replication, and all control-plane jobs in terminal states.
TEST(Soak, EverythingOnSurvivesAnHour) {
  Testbed t;
  core::ErmsConfig cfg = fast_erms();
  cfg.thresholds.cold_age = sim::minutes(25.0);
  core::ErmsManager erms{*t.cluster, t.pool, cfg};

  hdfs::FailureDetector::Config fd_cfg;
  fd_cfg.heartbeat_interval = sim::seconds(3.0);
  fd_cfg.tolerance = 10;
  hdfs::FailureDetector detector{*t.cluster, fd_cfg};

  hdfs::BlockScanner::Config scan_cfg;
  scan_cfg.round_interval = sim::seconds(20.0);
  scan_cfg.blocks_per_round = 16;
  hdfs::BlockScanner scanner{*t.cluster, scan_cfg};

  // Dataset + workload.
  workload::SwimConfig swim;
  swim.file_count = 16;
  swim.duration = sim::minutes(40.0);
  swim.epoch = sim::minutes(20.0);
  swim.mean_interarrival_s = 4.0;
  swim.zipf_exponent = 1.6;
  swim.min_file_bytes = 128 * MiB;
  swim.max_file_bytes = 1 * GiB;
  const workload::Trace trace = workload::SwimTraceGenerator{swim}.generate(77);
  for (const workload::FileSpec& file : trace.files) {
    t.cluster->populate_file(file.path, file.bytes);
  }

  erms.start();
  detector.start();
  scanner.start();
  mapred::JobRunner runner{*t.cluster, mapred::MapRedConfig{}};
  runner.submit_trace(trace);

  // Fault injection: a silent crash at 10 min and bit rot at 20 min.
  t.sim.schedule_at(sim::SimTime{sim::minutes(10.0).micros()},
                    [&] { detector.mute(hdfs::NodeId{6}); });
  t.sim.schedule_at(sim::SimTime{sim::minutes(20.0).micros()}, [&t] {
    const hdfs::FileInfo* info = t.cluster->metadata().find_path("/data/part-0");
    ASSERT_NE(info, nullptr);
    const hdfs::BlockId block = info->blocks[0];
    const auto locs = t.cluster->locations(block);
    ASSERT_FALSE(locs.empty());
    t.cluster->corrupt_replica(block, locs.front());
  });

  t.sim.run_until(sim::SimTime{sim::hours(1.0).micros()});

  // The crash was detected and repaired.
  EXPECT_EQ(detector.failures_declared(), 1u);
  EXPECT_EQ(t.cluster->node(hdfs::NodeId{6}).state, hdfs::NodeState::kDead);
  // The corruption was found (by scanner or a client read) and healed.
  EXPECT_GE(t.cluster->corruptions_detected(), 1u);
  // No data loss; every file fully replicated and available.
  EXPECT_EQ(t.cluster->blocks_lost(), 0u);
  for (const hdfs::FileId file : t.cluster->metadata().file_ids()) {
    const hdfs::FileInfo* info = t.cluster->metadata().find(file);
    EXPECT_TRUE(t.cluster->file_available(file)) << info->path;
    if (!info->erasure_coded) {
      for (const hdfs::BlockId b : info->blocks) {
        EXPECT_GE(t.cluster->locations(b).size(), info->replication) << info->path;
      }
    }
  }
  // The workload completed.
  EXPECT_EQ(runner.results().size(), trace.jobs.size());
  // The job log replays to exactly the live scheduler state (jobs caught
  // mid-flight at the cutoff are fine; inconsistency is not).
  const auto statuses = condor::recover_statuses(erms.scheduler().log());
  EXPECT_FALSE(statuses.empty());
  std::size_t completed = 0;
  for (const auto& [id, status] : statuses) {
    ASSERT_NE(erms.scheduler().find(id), nullptr);
    EXPECT_EQ(erms.scheduler().find(id)->status, status);
    completed += status == condor::JobStatus::kCompleted ? 1 : 0;
  }
  EXPECT_GT(completed, 0u);
  // The cluster ends roughly balanced across the serving fleet.
  hdfs::Balancer balancer{*t.cluster, hdfs::Balancer::Config{0.25, 4, 10'000}};
  EXPECT_TRUE(balancer.is_balanced());

  scanner.stop();
  detector.stop();
  erms.stop();
}

}  // namespace
}  // namespace erms
