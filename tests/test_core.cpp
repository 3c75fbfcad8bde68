#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/erms.h"
#include "core/erms_placement.h"
#include "core/standby.h"
#include "hdfs/cluster.h"

namespace erms::core {
namespace {

using hdfs::BlockId;
using hdfs::Cluster;
using hdfs::ClusterConfig;
using hdfs::FileId;
using hdfs::FileInfo;
using hdfs::NodeId;
using hdfs::NodeState;
using hdfs::Topology;
using util::MiB;

/// The paper's testbed shape: 18 nodes in 3 racks; the last 8 nodes form the
/// standby pool (10 active + 8 standby, Fig. 8's configuration).
struct Fixture {
  sim::Simulation sim;
  Topology topo = Topology::uniform(3, 6);
  std::unique_ptr<Cluster> cluster;
  std::vector<NodeId> pool;

  explicit Fixture(ClusterConfig cfg = {}) {
    cluster = std::make_unique<Cluster>(sim, topo, cfg);
    for (std::uint32_t n = 10; n < 18; ++n) {
      pool.push_back(NodeId{n});
    }
  }

  std::set<NodeId> pool_set() const { return {pool.begin(), pool.end()}; }

  void commission_pool() {
    for (const NodeId n : pool) {
      cluster->commission(n);
    }
    sim.run();
  }
};

// ---------- Algorithm 1 placement ----------

TEST(ErmsPlacement, BaseReplicasAvoidStandbyPool) {
  Fixture f;
  auto policy = std::make_shared<ErmsPlacementPolicy>(f.pool_set(), 3);
  f.cluster->set_placement_policy(policy);
  StandbyManager standby{*f.cluster, f.pool};  // powers the pool down
  f.commission_pool();                         // pool serving, but base replicas still avoid it
  for (int i = 0; i < 10; ++i) {
    const auto file = f.cluster->populate_file("/f" + std::to_string(i), 128 * MiB, 3);
    const FileInfo* info = f.cluster->metadata().find(*file);
    for (const BlockId b : info->blocks) {
      for (const NodeId n : f.cluster->locations(b)) {
        EXPECT_FALSE(policy->in_standby_pool(n))
            << "base replica on pool node " << n.value();
      }
    }
  }
}

TEST(ErmsPlacement, ExtraReplicasPreferStandby) {
  Fixture f;
  auto policy = std::make_shared<ErmsPlacementPolicy>(f.pool_set(), 3);
  f.cluster->set_placement_policy(policy);
  StandbyManager standby{*f.cluster, f.pool};
  const auto file = f.cluster->populate_file("/hot", 128 * MiB, 3);
  f.commission_pool();

  bool ok = false;
  f.cluster->change_replication(*file, 6, Cluster::IncreaseMode::kDirect,
                                [&](bool r) { ok = r; });
  f.sim.run();
  ASSERT_TRUE(ok);
  const FileInfo* info = f.cluster->metadata().find(*file);
  for (const BlockId b : info->blocks) {
    const auto locs = f.cluster->locations(b);
    ASSERT_EQ(locs.size(), 6u);
    std::size_t on_pool = 0;
    for (const NodeId n : locs) {
      on_pool += policy->in_standby_pool(n) ? 1 : 0;
    }
    EXPECT_EQ(on_pool, 3u) << "extra replicas should land on the pool";
  }
}

TEST(ErmsPlacement, ExtraReplicasFallBackToActiveWhenPoolDown) {
  Fixture f;
  auto policy = std::make_shared<ErmsPlacementPolicy>(f.pool_set(), 3);
  f.cluster->set_placement_policy(policy);
  StandbyManager standby{*f.cluster, f.pool};  // pool stays powered off
  const auto file = f.cluster->populate_file("/hot", 64 * MiB, 3);
  bool ok = false;
  f.cluster->change_replication(*file, 5, Cluster::IncreaseMode::kDirect,
                                [&](bool r) { ok = r; });
  f.sim.run();
  ASSERT_TRUE(ok);
  const auto locs = f.cluster->locations(f.cluster->metadata().find(*file)->blocks[0]);
  EXPECT_EQ(locs.size(), 5u);
  for (const NodeId n : locs) {
    EXPECT_FALSE(policy->in_standby_pool(n));
  }
}

TEST(ErmsPlacement, DeletionPrefersStandbyNodes) {
  Fixture f;
  auto policy = std::make_shared<ErmsPlacementPolicy>(f.pool_set(), 3);
  f.cluster->set_placement_policy(policy);
  StandbyManager standby{*f.cluster, f.pool};
  f.commission_pool();
  const auto file = f.cluster->populate_file("/hot", 64 * MiB, 3);
  f.cluster->change_replication(*file, 6, Cluster::IncreaseMode::kDirect, nullptr);
  f.sim.run();
  // Cool down: back to 3. All removals must come from pool nodes.
  f.cluster->change_replication(*file, 3, Cluster::IncreaseMode::kDirect, nullptr);
  f.sim.run();
  const auto locs = f.cluster->locations(f.cluster->metadata().find(*file)->blocks[0]);
  ASSERT_EQ(locs.size(), 3u);
  for (const NodeId n : locs) {
    EXPECT_FALSE(policy->in_standby_pool(n))
        << "active replicas must be untouched (no re-balancing)";
  }
}

TEST(ErmsPlacement, ParityGoesToActiveNodeWithFewestFileBlocks) {
  Fixture f;
  auto policy = std::make_shared<ErmsPlacementPolicy>(f.pool_set(), 3);
  f.cluster->set_placement_policy(policy);
  StandbyManager standby{*f.cluster, f.pool};
  const auto file = f.cluster->populate_file("/cold", 256 * MiB, 3);
  bool ok = false;
  f.cluster->encode_file(*file, 4, [&](bool r) { ok = r; });
  f.sim.run();
  ASSERT_TRUE(ok);
  const FileInfo* info = f.cluster->metadata().find(*file);
  for (const BlockId p : info->parity_blocks) {
    const auto locs = f.cluster->locations(p);
    ASSERT_EQ(locs.size(), 1u);
    EXPECT_FALSE(policy->in_standby_pool(locs.front()));
  }
  // Availability invariant: no node may hold so many of the file's shards
  // that its loss defeats the m=4 parity budget.
  for (const NodeId n : f.cluster->nodes()) {
    EXPECT_LE(f.cluster->file_blocks_on_node(*file, n), 4u);
  }
}

TEST(ErmsPlacement, ExtraReplicasPreferReplicaRacks) {
  Fixture f;
  auto policy = std::make_shared<ErmsPlacementPolicy>(f.pool_set(), 3);
  f.cluster->set_placement_policy(policy);
  StandbyManager standby{*f.cluster, f.pool};
  f.commission_pool();
  const auto file = f.cluster->populate_file("/hot", 64 * MiB, 3);
  const BlockId block = f.cluster->metadata().find(*file)->blocks[0];
  std::set<std::uint32_t> base_racks;
  for (const NodeId n : f.cluster->locations(block)) {
    base_racks.insert(f.cluster->rack_of(n).value());
  }
  f.cluster->change_replication(*file, 4, Cluster::IncreaseMode::kDirect, nullptr);
  f.sim.run();
  // The one extra replica landed on a pool node in an existing rack.
  for (const NodeId n : f.cluster->locations(block)) {
    if (policy->in_standby_pool(n)) {
      EXPECT_TRUE(base_racks.contains(f.cluster->rack_of(n).value()));
    }
  }
}

// ---------- standby manager ----------

TEST(Standby, PoolStartsPoweredDown) {
  Fixture f;
  StandbyManager standby{*f.cluster, f.pool};
  EXPECT_EQ(standby.standby_count(), 8u);
  EXPECT_EQ(standby.commissioned_count(), 0u);
  for (const NodeId n : f.pool) {
    EXPECT_EQ(f.cluster->node(n).state, NodeState::kStandby);
  }
}

TEST(Standby, EnsureCommissionedBringsUpExactlyEnough) {
  Fixture f;
  StandbyManager standby{*f.cluster, f.pool};
  bool ready = false;
  standby.ensure_commissioned(3, [&] { ready = true; });
  EXPECT_FALSE(ready);
  f.sim.run();
  EXPECT_TRUE(ready);
  EXPECT_EQ(standby.commissioned_count(), 3u);
  EXPECT_EQ(standby.commissions(), 3u);
}

TEST(Standby, EnsureCommissionedIdempotent) {
  Fixture f;
  StandbyManager standby{*f.cluster, f.pool};
  standby.ensure_commissioned(3);
  f.sim.run();
  bool ready = false;
  standby.ensure_commissioned(2, [&] { ready = true; });
  f.sim.run();
  EXPECT_TRUE(ready);
  EXPECT_EQ(standby.commissioned_count(), 3u);  // nothing extra started
}

TEST(Standby, EnsureMoreThanPoolCapsOut) {
  Fixture f;
  StandbyManager standby{*f.cluster, f.pool};
  bool ready = false;
  standby.ensure_commissioned(100, [&] { ready = true; });
  f.sim.run();
  EXPECT_TRUE(ready);
  EXPECT_EQ(standby.commissioned_count(), 8u);
}

TEST(Standby, PowerDownOnlyDrainedNodes) {
  Fixture f;
  auto policy = std::make_shared<ErmsPlacementPolicy>(f.pool_set(), 3);
  f.cluster->set_placement_policy(policy);
  StandbyManager standby{*f.cluster, f.pool};
  standby.ensure_commissioned(8);
  f.sim.run();
  const auto file = f.cluster->populate_file("/hot", 64 * MiB, 3);
  f.cluster->change_replication(*file, 5, Cluster::IncreaseMode::kDirect, nullptr);
  f.sim.run();
  // Two pool nodes hold extra replicas; the other six must power down.
  EXPECT_EQ(standby.power_down_drained(), 6u);
  EXPECT_EQ(standby.commissioned_count(), 2u);
  // Cool down and drain the rest.
  f.cluster->change_replication(*file, 3, Cluster::IncreaseMode::kDirect, nullptr);
  f.sim.run();
  EXPECT_EQ(standby.power_down_drained(), 2u);
  EXPECT_EQ(standby.standby_count(), 8u);
}

// ---------- the ERMS manager ----------

ErmsConfig fast_config() {
  ErmsConfig cfg;
  cfg.thresholds.window = sim::seconds(60.0);
  cfg.thresholds.cold_age = sim::minutes(30.0);
  cfg.evaluation_period = sim::seconds(20.0);
  return cfg;
}

/// Drive a read storm against one file: `rate` reads/s for `duration`.
void storm(Fixture& f, const std::string& path, double rate, double duration_s,
           double start_s = 0.0) {
  const FileInfo* info = f.cluster->metadata().find_path(path);
  ASSERT_NE(info, nullptr);
  const FileId id = info->id;
  const int total = static_cast<int>(rate * duration_s);
  for (int i = 0; i < total; ++i) {
    const double t = start_s + i / rate;
    const NodeId client{static_cast<std::uint32_t>(i % 10)};
    f.sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(t * 1e6)},
                      [&f, client, id] {
                        f.cluster->read_file(client, id, [](const hdfs::ReadOutcome&) {});
                      });
  }
}

TEST(ErmsManager, HotFileGetsExtraReplicasOnStandby) {
  Fixture f;
  ErmsManager erms{*f.cluster, f.pool, fast_config()};
  const auto file = f.cluster->populate_file("/hot", 128 * MiB, 3);
  erms.start();
  storm(f, "/hot", 2.0, 120.0);  // 2 opens/s ≫ τ_M·r/window
  // Inspect while the burst is still within the judge's window — by +5 min
  // ERMS will already have cooled the file back down.
  f.sim.run_until(sim::SimTime{sim::seconds(150.0).micros()});

  EXPECT_GT(erms.stats().hot_promotions, 0u);
  const FileInfo* info = f.cluster->metadata().find(*file);
  EXPECT_GT(info->replication, 3u);
  EXPECT_EQ(erms.current_type("/hot"), judge::DataType::kHot);
  // Extra replicas are on commissioned pool nodes.
  std::size_t pool_replicas = 0;
  for (const hdfs::BlockId b : info->blocks) {
    for (const NodeId n : f.cluster->locations(b)) {
      pool_replicas += erms.standby().in_pool(n) ? 1 : 0;
    }
  }
  EXPECT_GT(pool_replicas, 0u);
  erms.stop();
}

TEST(ErmsManager, CooledFileDropsBackAndPowersDown) {
  Fixture f;
  ErmsConfig cfg = fast_config();
  ErmsManager erms{*f.cluster, f.pool, cfg};
  const auto file = f.cluster->populate_file("/spike", 128 * MiB, 3);
  erms.start();
  storm(f, "/spike", 2.0, 120.0);
  f.sim.run_until(sim::SimTime{sim::seconds(150.0).micros()});
  ASSERT_GT(f.cluster->metadata().find(*file)->replication, 3u);

  // Silence. The window drains, the judge sees cooled data, the deferred
  // decrease runs when idle, and drained pool nodes power off.
  f.sim.run_until(sim::SimTime{sim::minutes(12.0).micros()});
  EXPECT_EQ(f.cluster->metadata().find(*file)->replication, 3u);
  EXPECT_GT(erms.stats().cooldowns, 0u);
  EXPECT_EQ(erms.standby().commissioned_count(), 0u);
  erms.stop();
}

TEST(ErmsManager, ColdFileGetsErasureCoded) {
  Fixture f;
  ErmsConfig cfg = fast_config();
  cfg.thresholds.cold_age = sim::minutes(5.0);
  ErmsManager erms{*f.cluster, f.pool, cfg};
  const auto file = f.cluster->populate_file("/cold", 256 * MiB, 3);
  erms.start();
  f.sim.run_until(sim::SimTime{sim::minutes(20.0).micros()});
  const FileInfo* info = f.cluster->metadata().find(*file);
  EXPECT_TRUE(info->erasure_coded);
  EXPECT_EQ(info->replication, 1u);
  EXPECT_EQ(info->parity_blocks.size(), 4u);
  EXPECT_GT(erms.stats().encodes, 0u);
  erms.stop();
}

TEST(ErmsManager, RewarmedColdFileDecodes) {
  Fixture f;
  ErmsConfig cfg = fast_config();
  cfg.thresholds.cold_age = sim::minutes(5.0);
  ErmsManager erms{*f.cluster, f.pool, cfg};
  const auto file = f.cluster->populate_file("/lazarus", 128 * MiB, 3);
  erms.start();
  f.sim.run_until(sim::SimTime{sim::minutes(20.0).micros()});
  ASSERT_TRUE(f.cluster->metadata().find(*file)->erasure_coded);

  storm(f, "/lazarus", 2.0, 120.0, /*start_s=*/21.0 * 60.0);
  // Check before the file has had time to go cold *again* (cold_age is only
  // 5 minutes in this config).
  f.sim.run_until(sim::SimTime{sim::minutes(25.0).micros()});
  const FileInfo* info = f.cluster->metadata().find(*file);
  EXPECT_FALSE(info->erasure_coded);
  EXPECT_GE(info->replication, 3u);
  EXPECT_GT(erms.stats().decodes, 0u);
  erms.stop();
}

TEST(ErmsManager, MachineAdsTrackCommissioning) {
  Fixture f;
  ErmsManager erms{*f.cluster, f.pool, fast_config()};
  f.cluster->populate_file("/hot", 128 * MiB, 3);
  erms.start();
  EXPECT_EQ(erms.scheduler().query_machines("State == \"standby\"").size(), 8u);
  storm(f, "/hot", 2.0, 120.0);
  f.sim.run_until(sim::SimTime{sim::seconds(150.0).micros()});
  EXPECT_LT(erms.scheduler().query_machines("State == \"standby\"").size(), 8u);
  EXPECT_GT(erms.scheduler().query_machines("State == \"active\"").size(), 10u);
  erms.stop();
}

TEST(ErmsManager, AutoCalibrateDerivesTauFromSessions) {
  Fixture f;
  ErmsConfig cfg = fast_config();
  cfg.auto_calibrate = true;
  ErmsManager erms{*f.cluster, f.pool, cfg};
  erms.start();
  // Default DataNodeConfig has 9 sessions per node; τ_M must track it.
  EXPECT_DOUBLE_EQ(erms.data_judge().thresholds().tau_M, 9.0);
  EXPECT_TRUE(erms.data_judge().thresholds().valid());
  erms.stop();
}

TEST(ErmsManager, PredictivePromotesRisingFileEarlier) {
  auto promoted_at = [](bool predictive) {
    Fixture f;
    ErmsConfig cfg = fast_config();
    cfg.predictive = predictive;
    cfg.predictor.alpha = 0.7;
    cfg.predictor.beta = 0.5;
    cfg.predictor.horizon_periods = 4.0;
    ErmsManager erms{*f.cluster, f.pool, cfg};
    const auto file = f.cluster->populate_file("/rise", 128 * MiB, 3);
    erms.start();
    // Accelerating read schedule.
    double at = 10.0;
    int i = 0;
    while (at < 600.0) {
      f.sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(at * 1e6)},
                        [&f, &file, i] {
                          f.cluster->read_file(NodeId{static_cast<std::uint32_t>(i % 10)},
                                               *file, [](const hdfs::ReadOutcome&) {});
                        });
      at += 1.0 / (0.05 * std::pow(2.0, at / 120.0));
      ++i;
    }
    double when = -1.0;
    for (int s = 0; s < 700; ++s) {
      f.sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(s * 1e6)},
                        [&f, &file, &when, s] {
                          if (when < 0 &&
                              f.cluster->metadata().find(*file)->replication > 3) {
                            when = s;
                          }
                        });
    }
    f.sim.run_until(sim::SimTime{sim::minutes(12.0).micros()});
    erms.stop();
    return when;
  };
  const double reactive = promoted_at(false);
  const double predictive = promoted_at(true);
  ASSERT_GT(reactive, 0.0);
  ASSERT_GT(predictive, 0.0);
  EXPECT_LT(predictive, reactive);
}

TEST(ErmsManager, JobLogRecordsActions) {
  Fixture f;
  ErmsManager erms{*f.cluster, f.pool, fast_config()};
  f.cluster->populate_file("/hot", 128 * MiB, 3);
  erms.start();
  storm(f, "/hot", 2.0, 120.0);
  f.sim.run_until(sim::SimTime{sim::minutes(5.0).micros()});
  const auto statuses = condor::recover_statuses(erms.scheduler().log());
  EXPECT_FALSE(statuses.empty());
  bool saw_increase = false;
  for (const auto& rec : erms.scheduler().log()) {
    saw_increase = saw_increase || rec.cmd == "increase_replication";
  }
  EXPECT_TRUE(saw_increase);
  erms.stop();
}

}  // namespace
}  // namespace erms::core
