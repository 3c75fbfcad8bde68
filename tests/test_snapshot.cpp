// Snapshot/restore tests. The centerpiece is the resume-determinism
// contract: run → snapshot → restore in a fresh world → run must produce a
// byte-identical trace and invariant report versus the same run never
// interrupted. The rest is hostile-input coverage: truncated, bit-flipped
// and version-skewed snapshot files must be rejected with a structured
// error and must leave the live world untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "cep/epl_parser.h"
#include "condor/scheduler.h"
#include "core/erms.h"
#include "fault/fault_plan.h"
#include "fault/invariant_checker.h"
#include "hdfs/cluster.h"
#include "obs/observability.h"
#include "snapshot/codec.h"
#include "snapshot/world.h"

namespace erms {
namespace {

using hdfs::Cluster;
using hdfs::ClusterConfig;
using hdfs::NodeId;
using hdfs::Topology;
using util::MiB;

core::ErmsConfig soak_erms() {
  core::ErmsConfig cfg;
  cfg.thresholds.window = sim::seconds(60.0);
  cfg.thresholds.cold_age = sim::minutes(15.0);
  cfg.evaluation_period = sim::seconds(20.0);
  cfg.observe = true;
  cfg.trace_capacity = 65536;
  cfg.job_max_retries = 3;
  cfg.job_retry_backoff = sim::seconds(5.0);
  return cfg;
}

fault::ChaosOptions soak_options() {
  fault::ChaosOptions opt;
  opt.start = sim::SimTime{sim::minutes(1.0).micros()};
  opt.end = sim::SimTime{sim::minutes(10.0).micros()};
  for (std::uint32_t n = 0; n < 10; ++n) {
    opt.victims.push_back(n);
  }
  opt.racks = {0, 1, 2};
  opt.max_concurrent_dead = 1;
  opt.mean_gap = sim::seconds(60.0);
  opt.min_downtime = sim::seconds(30.0);
  opt.max_downtime = sim::seconds(60.0);
  return opt;
}

constexpr sim::SimTime kSnapshotAt{sim::minutes(6.0).micros()};
constexpr sim::SimTime kRunEnd{sim::minutes(20.0).micros()};
constexpr int kReads = 180;

/// One complete soak world: cluster + ERMS + fault injector. Construction
/// order (and therefore metric/query registration order) is identical on
/// every build, which is what lets a restored world pick up exactly where
/// the saved one stopped.
struct SoakWorld {
  sim::Simulation sim;
  Topology topo = Topology::uniform(3, 6);
  std::unique_ptr<Cluster> cluster;
  std::vector<NodeId> pool;
  std::unique_ptr<core::ErmsManager> erms;
  fault::FaultPlan plan;
  std::unique_ptr<fault::FaultInjector> injector;
  std::vector<hdfs::FileId> files;

  explicit SoakWorld(std::uint64_t seed) {
    cluster = std::make_unique<Cluster>(sim, topo, ClusterConfig{});
    for (std::uint32_t n = 10; n < 18; ++n) {
      pool.push_back(NodeId{n});
    }
    erms = std::make_unique<core::ErmsManager>(*cluster, pool, soak_erms());
    plan = fault::FaultPlan::randomized(soak_options(), seed);
    injector =
        std::make_unique<fault::FaultInjector>(*cluster, &erms->observability()->trace());
  }

  [[nodiscard]] snapshot::WorldParts parts() {
    return snapshot::WorldParts{&sim, cluster.get(), erms.get(), injector.get(), nullptr};
  }

  void populate() {
    for (int i = 0; i < 4; ++i) {
      files.push_back(*cluster->populate_file("/snap/f" + std::to_string(i), 64 * MiB, 3));
    }
  }

  /// Schedule the steady read workload, skipping everything at or before
  /// `after` — the restore path re-arms only the not-yet-executed tail. Must
  /// run before injector arming and manager start/resume so that equal-time
  /// events keep the reference run's order: reads, then faults, then tick.
  void schedule_reads(sim::SimTime after) {
    for (int i = 0; i < kReads; ++i) {
      const sim::SimTime at{static_cast<std::int64_t>(i) * 5'000'000};
      if (at <= after) {
        continue;
      }
      sim.schedule_at(at, [this, i] {
        cluster->read_file(NodeId{static_cast<std::uint32_t>(i % 10)},
                           files[static_cast<std::size_t>(i) % files.size()],
                           [](const hdfs::ReadOutcome&) {});
      });
    }
  }

  [[nodiscard]] std::string invariant_report() {
    const fault::InvariantChecker checker{*cluster, &erms->scheduler(),
                                          &erms->observability()->trace()};
    return checker.check(/*converged=*/true).text;
  }

  [[nodiscard]] std::string trace_jsonl() {
    std::ostringstream os;
    erms->observability()->trace().to_jsonl(os);
    return os.str();
  }
};

/// A tiny idle world for file-format fuzzing — quiescent by construction,
/// cheap to rebuild, and stable enough that "untouched" can be asserted by
/// comparing serialized state before and after a rejected restore.
struct TinyWorld {
  sim::Simulation sim;
  Topology topo = Topology::uniform(2, 3);
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<core::ErmsManager> erms;

  explicit TinyWorld(ClusterConfig cfg = {}) {
    cluster = std::make_unique<Cluster>(sim, topo, cfg);
    erms = std::make_unique<core::ErmsManager>(*cluster, std::vector<NodeId>{NodeId{5}},
                                               soak_erms());
    (void)cluster->populate_file("/tiny/a", 64 * MiB, 2);
  }

  [[nodiscard]] snapshot::WorldParts parts() {
    return snapshot::WorldParts{&sim, cluster.get(), erms.get(), nullptr, nullptr};
  }
};

// ---------------------------------------------------------------------------
// Resume determinism
// ---------------------------------------------------------------------------

struct RunArtifacts {
  std::string snapshot_bytes;
  std::string report;
  std::string trace;
  std::uint64_t blocks_lost{0};
  std::uint64_t injected{0};
};

/// The uninterrupted reference: same barrier, same save (flush side effects
/// included), but the run just keeps going afterwards.
RunArtifacts run_reference(std::uint64_t seed) {
  SoakWorld w(seed);
  w.populate();
  w.schedule_reads(sim::SimTime{-1});
  w.injector->arm(w.plan);
  w.erms->start();

  snapshot::SnapshotBarrier barrier{w.sim, w.parts()};
  RunArtifacts out;
  barrier.arm(kSnapshotAt, [&] {
    out.snapshot_bytes = snapshot::save_world_bytes(w.parts(), "seed=" + std::to_string(seed));
  });
  w.sim.run_until(kRunEnd);
  EXPECT_TRUE(barrier.fired()) << "no quiescent point found after " << kSnapshotAt;

  out.report = w.invariant_report();
  out.trace = w.trace_jsonl();
  out.blocks_lost = w.cluster->blocks_lost();
  out.injected = w.injector->injected();
  w.erms->stop();
  return out;
}

/// The interrupted run: identical to the reference until the barrier fires,
/// then the process "dies" (sim stops, world discarded). A fresh world is
/// rebuilt, restored from the snapshot bytes, re-armed and run to the end.
RunArtifacts run_restored(std::uint64_t seed, std::vector<hdfs::FileId>* files_out = nullptr) {
  std::string bytes;
  std::vector<hdfs::FileId> files;
  {
    SoakWorld w(seed);
    w.populate();
    files = w.files;
    w.schedule_reads(sim::SimTime{-1});
    w.injector->arm(w.plan);
    w.erms->start();

    snapshot::SnapshotBarrier barrier{w.sim, w.parts()};
    barrier.arm(kSnapshotAt, [&] {
      bytes = snapshot::save_world_bytes(w.parts(), "seed=" + std::to_string(seed));
      w.sim.stop();
    });
    w.sim.run_until(kRunEnd);
    EXPECT_FALSE(bytes.empty());
  }

  SoakWorld w(seed);
  w.files = files;  // dense ids are deterministic; restore rebuilds the namespace
  std::string user_data;
  const snapshot::SnapshotResult err =
      snapshot::restore_world_bytes(bytes, w.parts(), &user_data);
  EXPECT_FALSE(err.has_value()) << err->to_string();
  EXPECT_EQ(user_data, "seed=" + std::to_string(seed));

  // Re-arm continuation events in the reference run's equal-time order:
  // workload reads first, remaining fault events next, manager tick last.
  w.schedule_reads(w.sim.now());
  w.injector->arm_after(w.plan, w.sim.now());
  w.erms->resume();
  w.sim.run_until(kRunEnd);

  RunArtifacts out;
  out.snapshot_bytes = bytes;
  out.report = w.invariant_report();
  out.trace = w.trace_jsonl();
  out.blocks_lost = w.cluster->blocks_lost();
  out.injected = w.injector->injected();
  w.erms->stop();
  if (files_out != nullptr) {
    *files_out = files;
  }
  return out;
}

TEST(SnapshotResume, ByteIdenticalAcrossChaosSeeds) {
  for (const std::uint64_t seed : {3u, 5u, 9u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RunArtifacts ref = run_reference(seed);
    const RunArtifacts res = run_restored(seed);
    // Both runs were identical up to the barrier, so the snapshots they
    // saved there must match byte for byte...
    EXPECT_EQ(ref.snapshot_bytes, res.snapshot_bytes);
    // ...and so must everything the runs tell about their second half.
    EXPECT_EQ(ref.trace, res.trace);
    EXPECT_EQ(ref.report, res.report);
    EXPECT_EQ(ref.blocks_lost, res.blocks_lost);
    EXPECT_EQ(ref.injected, res.injected);
    EXPECT_EQ(ref.blocks_lost, 0u);
    EXPECT_GT(ref.injected, 0u);
  }
}

TEST(SnapshotResume, SaveRestoreSaveIsIdentity) {
  TinyWorld a;
  const std::string bytes = snapshot::save_world_bytes(a.parts(), "blob");

  TinyWorld b;
  std::string user_data;
  const snapshot::SnapshotResult err = snapshot::restore_world_bytes(bytes, b.parts(), &user_data);
  ASSERT_FALSE(err.has_value()) << err->to_string();
  EXPECT_EQ(user_data, "blob");
  EXPECT_EQ(snapshot::save_world_bytes(b.parts(), "blob"), bytes);
}

// ---------------------------------------------------------------------------
// Hostile input: every corruption is rejected with a structured error and
// zero mutation of the live world.
// ---------------------------------------------------------------------------

class SnapshotFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    donor_ = std::make_unique<TinyWorld>();
    bytes_ = snapshot::save_world_bytes(donor_->parts());
    victim_ = std::make_unique<TinyWorld>();
    baseline_ = snapshot::save_world_bytes(victim_->parts());
  }

  /// Restore must fail with `want` (or any error if nullopt) and must leave
  /// the victim world bit-identical to before the attempt.
  void expect_rejected(const std::string& corrupted,
                       std::optional<snapshot::ErrorCode> want = std::nullopt) {
    const snapshot::SnapshotResult err =
        snapshot::restore_world_bytes(corrupted, victim_->parts());
    ASSERT_TRUE(err.has_value());
    if (want.has_value()) {
      EXPECT_EQ(err->code, *want) << err->to_string();
    }
    EXPECT_FALSE(err->message.empty());
    EXPECT_EQ(snapshot::save_world_bytes(victim_->parts()), baseline_)
        << "rejected restore mutated the live world";
  }

  std::unique_ptr<TinyWorld> donor_;
  std::unique_ptr<TinyWorld> victim_;
  std::string bytes_;
  std::string baseline_;
};

TEST_F(SnapshotFuzz, TruncationsAtEveryBoundaryAreRejected) {
  const std::size_t cuts[] = {0, 1, 4, 7, 8, 11, 12, 15, 16, 20,
                              bytes_.size() / 4, bytes_.size() / 2, bytes_.size() - 1};
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("truncate to " + std::to_string(cut));
    ASSERT_LT(cut, bytes_.size());
    expect_rejected(bytes_.substr(0, cut));
  }
}

TEST_F(SnapshotFuzz, EverySingleByteFlipIsRejected) {
  // Every byte of the file is covered: header fields fail their own field
  // checks, all payload bytes (and the CRCs guarding them) fail CRC.
  for (std::size_t i = 0; i < bytes_.size(); ++i) {
    std::string mutated = bytes_;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    const snapshot::SnapshotResult err =
        snapshot::restore_world_bytes(mutated, victim_->parts());
    ASSERT_TRUE(err.has_value()) << "flip at offset " << i << " was accepted";
  }
  EXPECT_EQ(snapshot::save_world_bytes(victim_->parts()), baseline_);
}

TEST_F(SnapshotFuzz, BadMagicIsDiagnosed) {
  std::string mutated = bytes_;
  mutated[0] = 'X';
  expect_rejected(mutated, snapshot::ErrorCode::kBadMagic);
}

TEST_F(SnapshotFuzz, VersionSkewIsDiagnosedNotCorrupt) {
  std::string mutated = bytes_;
  mutated[8] = static_cast<char>(snapshot::kFormatVersion + 1);  // version u32 LSB
  expect_rejected(mutated, snapshot::ErrorCode::kBadVersion);
}

TEST_F(SnapshotFuzz, GarbageAndEmptyFilesAreRejected) {
  expect_rejected("", snapshot::ErrorCode::kBadMagic);
  expect_rejected(std::string(4096, '\xAB'), snapshot::ErrorCode::kBadMagic);
}

TEST_F(SnapshotFuzz, WrongWorldShapeIsStateMismatch) {
  // A world with a different block size: the meta fingerprint must reject
  // the snapshot before any section is applied.
  ClusterConfig other;
  other.block_size = 32 * MiB;
  TinyWorld wrong(other);
  const std::string wrong_baseline = snapshot::save_world_bytes(wrong.parts());
  const snapshot::SnapshotResult err = snapshot::restore_world_bytes(bytes_, wrong.parts());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, snapshot::ErrorCode::kStateMismatch) << err->to_string();
  EXPECT_EQ(snapshot::save_world_bytes(wrong.parts()), wrong_baseline);
}

TEST_F(SnapshotFuzz, MissingFileIsIo) {
  TinyWorld w;
  const snapshot::SnapshotResult err =
      snapshot::restore_world("/nonexistent/erms.snap", w.parts());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, snapshot::ErrorCode::kIo);
}

// ---------- scheduler section decoding ----------

/// A scheduler payload with one terminal job and one log record, written
/// field by field in Scheduler::save_state's layout.
std::string scheduler_section(std::uint8_t sched_class, std::int64_t priority,
                              std::uint8_t log_kind) {
  snapshot::Writer w;
  w.begin_section(1);
  w.u64(1);  // job table
  w.u64(7);  // id
  w.u64(0);  // empty job ad
  w.u8(sched_class);
  w.i64(priority);
  w.u8(static_cast<std::uint8_t>(condor::JobStatus::kCompleted));
  w.u32(1);  // attempts
  w.i64(0);  // submitted, started, finished
  w.i64(0);
  w.i64(0);
  w.u64(1);  // job log
  w.u8(log_kind);
  w.i64(0);
  w.u64(7);
  w.str("work");
  w.u64(0);  // machine ads
  w.u64(8);  // next id
  w.u64(0);  // retries
  w.u64(0);  // timeouts
  w.end_section();
  return w.finish();
}

/// Load `file` (one scheduler section) into `sched`; returns the reader.
snapshot::Reader load_scheduler(const std::string& file, condor::Scheduler& sched,
                                std::vector<snapshot::Section>& sections) {
  EXPECT_FALSE(snapshot::parse_file(file, sections).has_value());
  snapshot::Reader r(sections.at(0).data, sections.at(0).size);
  sched.load_state(r);
  return r;
}

std::string scheduler_bytes(const condor::Scheduler& sched) {
  snapshot::Writer w;
  w.begin_section(1);
  sched.save_state(w);
  w.end_section();
  return w.finish();
}

constexpr auto kWhenIdle = static_cast<std::uint8_t>(condor::JobClass::kWhenIdle);
constexpr auto kTerminateOk =
    static_cast<std::uint8_t>(condor::JobLogRecord::Kind::kTerminateOk);
constexpr auto kLastKind = static_cast<std::uint8_t>(condor::JobLogRecord::Kind::kRetry);

TEST(SchedulerSnapshot, HandWrittenSectionLoads) {
  sim::Simulation sim;
  condor::Scheduler sched{sim};
  std::vector<snapshot::Section> sections;
  const std::string file = scheduler_section(kWhenIdle, -3, kTerminateOk);
  const snapshot::Reader r = load_scheduler(file, sched, sections);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  const condor::Job* job = sched.find(condor::JobId{7});
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->sched_class, condor::JobClass::kWhenIdle);
  EXPECT_EQ(job->priority, -3);
  ASSERT_EQ(sched.log().size(), 1u);
  EXPECT_EQ(sched.log()[0].kind, condor::JobLogRecord::Kind::kTerminateOk);
}

TEST(SchedulerSnapshot, OutOfRangeValuesAreRejectedWithoutMutation) {
  struct Case {
    const char* what;
    std::uint8_t sched_class;
    std::int64_t priority;
    std::uint8_t log_kind;
  };
  const Case cases[] = {
      {"job class 7", 7, 0, kTerminateOk},
      {"job class one past the last", kWhenIdle + 1, 0, kTerminateOk},
      {"priority above int", 0, std::int64_t{std::numeric_limits<int>::max()} + 1,
       kTerminateOk},
      {"priority below int", 0, std::int64_t{std::numeric_limits<int>::min()} - 1,
       kTerminateOk},
      {"log kind one past the last", 0, 0, kLastKind + 1},
      {"log kind 200", 0, 0, 200},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    sim::Simulation sim;
    condor::Scheduler sched{sim};
    sched.register_command(
        "work", [&sim](const classad::ClassAd&, std::function<void(bool)> done) {
          sim.schedule_after(sim::seconds(1.0), [done] { done(true); });
        });
    classad::ClassAd ad;
    ad.insert_string("Cmd", "work");
    sched.submit(std::move(ad), condor::JobClass::kImmediate, 1);
    sim.run();
    const std::string before = scheduler_bytes(sched);

    std::vector<snapshot::Section> sections;
    const std::string file = scheduler_section(c.sched_class, c.priority, c.log_kind);
    const snapshot::Reader r = load_scheduler(file, sched, sections);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, snapshot::ErrorCode::kBadSection) << r.error().to_string();
    EXPECT_EQ(scheduler_bytes(sched), before) << "rejected load mutated the scheduler";
  }
}

// ---------- cluster section decoding ----------

/// The payload Cluster::save_state writes into its section, unframed.
std::string cluster_payload(Cluster& cluster) {
  snapshot::Writer w;
  w.begin_section(1);
  cluster.save_state(w);
  w.end_section();
  const std::string file = w.finish();
  std::vector<snapshot::Section> sections;
  EXPECT_FALSE(snapshot::parse_file(file, sections).has_value());
  return std::string(sections.at(0).data, sections.at(0).size);
}

/// Cluster::save_state ends with the block-location table, then the
/// corrupt-replica table (empty here: a u64 count) and eight u64 counters.
constexpr std::size_t kClusterTailBytes = 8 + 8 * 8;

TEST(ClusterSnapshot, SwappedReplicasAreAMapMismatch) {
  // Two blocks trade one location each in a hand-edited cluster section.
  // Every node keeps its replica count, so holdings_mismatch cannot see
  // the divergence; only the per-replica map_mismatch check can.
  sim::Simulation sim;
  const Topology topo = Topology::uniform(2, 3);
  const ClusterConfig cfg;
  Cluster donor(sim, topo, cfg);
  const std::optional<hdfs::FileId> file = donor.populate_file("/swap/a", 4 * cfg.block_size);
  ASSERT_TRUE(file.has_value());
  const std::vector<hdfs::BlockId> blocks = donor.metadata().find(*file)->blocks;

  // Blocks b0, b1 and nodes x (holds b0, not b1) and z (holds b1, not b0).
  const auto holds = [&](hdfs::BlockId b, NodeId n) {
    const std::vector<NodeId> locs = donor.locations(b);
    return std::find(locs.begin(), locs.end(), n) != locs.end();
  };
  std::optional<std::pair<hdfs::BlockId, NodeId>> first;
  std::optional<std::pair<hdfs::BlockId, NodeId>> second;
  for (std::size_t i = 0; i < blocks.size() && !second; ++i) {
    for (std::size_t j = i + 1; j < blocks.size() && !second; ++j) {
      for (const NodeId x : donor.locations(blocks[i])) {
        for (const NodeId z : donor.locations(blocks[j])) {
          if (!second && !holds(blocks[j], x) && !holds(blocks[i], z)) {
            first.emplace(blocks[i], x);
            second.emplace(blocks[j], z);
          }
        }
      }
    }
  }
  ASSERT_TRUE(second.has_value()) << "no two blocks with distinct replicas";
  const auto [b0, x] = *first;
  const auto [b1, z] = *second;

  // The table is a u64 block count, then per BlockId a u32 replica count
  // and that many u32 node ids.
  std::uint64_t nloc = 0;
  for (const hdfs::BlockId b : blocks) nloc = std::max<std::uint64_t>(nloc, b.value() + 1);
  std::vector<std::size_t> list_at(nloc);
  std::size_t table_bytes = 8;
  for (std::uint64_t v = 0; v < nloc; ++v) {
    list_at[v] = table_bytes + 4;
    table_bytes += 4 + 4 * donor.locations(hdfs::BlockId{v}).size();
  }
  const std::string clean = cluster_payload(donor);
  ASSERT_GT(clean.size(), kClusterTailBytes + table_bytes);
  const std::size_t table = clean.size() - kClusterTailBytes - table_bytes;
  std::uint64_t stored_nloc = 0;
  std::memcpy(&stored_nloc, clean.data() + table, sizeof stored_nloc);
  ASSERT_EQ(stored_nloc, nloc) << "Cluster::save_state layout changed";

  std::string swapped = clean;
  const auto replace = [&](hdfs::BlockId b, NodeId was, NodeId now) {
    const std::vector<NodeId> locs = donor.locations(b);
    const auto slot = static_cast<std::size_t>(std::find(locs.begin(), locs.end(), was) -
                                               locs.begin());
    const std::uint32_t id = now.value();
    std::memcpy(swapped.data() + table + list_at[b.value()] + 4 * slot, &id, sizeof id);
  };
  replace(b0, x, z);
  replace(b1, z, x);

  const auto check_loaded = [&](const std::string& payload) {
    snapshot::Writer w;
    w.begin_section(1);
    w.raw(payload.data(), payload.size());
    w.end_section();
    const std::string bytes = w.finish();
    std::vector<snapshot::Section> sections;
    EXPECT_FALSE(snapshot::parse_file(bytes, sections).has_value());
    snapshot::Reader r(sections.at(0).data, sections.at(0).size);
    sim::Simulation restored_sim;
    Cluster restored(restored_sim, topo, cfg);
    restored.load_state(r);
    EXPECT_TRUE(r.ok()) << r.error().to_string();
    return fault::InvariantChecker{restored}.check();
  };

  const fault::InvariantReport before = check_loaded(clean);
  EXPECT_TRUE(before.ok) << before.text;

  const fault::InvariantReport after = check_loaded(swapped);
  EXPECT_FALSE(after.ok);
  const auto mismatch = [](NodeId n, hdfs::BlockId b) {
    return "map_mismatch node=" + std::to_string(n.value()) + " block=" +
           std::to_string(b.value()) + " (location without node replica)";
  };
  std::vector<std::string> expected = {mismatch(z, b0), mismatch(x, b1)};
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> got = after.violations;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << after.text;
}

// ---------- CRC-32 ----------

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition, no tables.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) != 0 ? 0xEDB88320U ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFU;
}

TEST(SnapshotCrc, CheckValue) {
  EXPECT_EQ(snapshot::crc32("123456789", 9), 0xCBF43926U);
  EXPECT_EQ(snapshot::crc32("", 0), 0U);
}

TEST(SnapshotCrc, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::mt19937 rng{20260};
  std::vector<unsigned char> data(4 << 20);
  for (unsigned char& b : data) {
    b = static_cast<unsigned char>(rng());
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(snapshot::crc32(data.data() + offset, len),
                crc32_bitwise(data.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  EXPECT_EQ(snapshot::crc32(data.data(), data.size()), crc32_bitwise(data.data(), data.size()));
  EXPECT_EQ(snapshot::crc32(data.data() + 3, data.size() - 5),
            crc32_bitwise(data.data() + 3, data.size() - 5));
}

// ---------- CEP engine section decoding ----------

constexpr std::uint32_t kEmptyBucket = 0xFFFFFFFFU;
constexpr std::uint32_t kTombBucket = 0xFFFFFFFEU;

/// An engine section for one `count(*) ... GROUP BY fid` query, written
/// field by field in Engine::save_state's layout. The defaults describe one
/// live group (fid 7, one window entry at t=1ms) in pool slot 0, named by
/// bucket 3 of 16.
struct EngineSection {
  struct Slot {
    std::uint64_t count;
    std::uint32_t bucket;
    std::uint32_t mask;
    std::uint64_t word;
  };
  std::vector<std::pair<bool, std::string>> strings;  // (live, text) by id
  std::vector<std::uint32_t> string_free;
  std::vector<std::pair<std::int64_t, std::uint32_t>> ring{{1000, 0}};
  std::vector<std::uint32_t> buckets = [] {
    std::vector<std::uint32_t> b(16, kEmptyBucket);
    b[3] = 0;
    return b;
  }();
  std::vector<Slot> slots{{1, 3, 0, 7}};
  std::vector<std::uint32_t> free_slots;

  [[nodiscard]] std::string file() const {
    snapshot::Writer w;
    w.begin_section(1);
    w.u64(1);  // queries
    w.u64(strings.size());
    for (const auto& [live, text] : strings) {
      w.u8(live ? 1 : 0);
      if (live) {
        w.str(text);
      }
    }
    w.u64(string_free.size());
    for (const std::uint32_t id : string_free) w.u32(id);
    w.u64(1);  // query id
    w.u32(0);  // numeric aggregates
    w.u32(1);  // group-by width
    w.u64(ring.size());
    for (const auto& [t, slot] : ring) {
      w.i64(t);
      w.u32(slot);
    }
    w.u64(buckets.size());
    for (const std::uint32_t b : buckets) w.u32(b);
    w.u64(slots.size());
    for (const Slot& s : slots) {
      w.u64(s.count);
      w.u32(s.bucket);
      w.u32(s.mask);
    }
    for (const Slot& s : slots) w.u64(s.word);
    w.u64(free_slots.size());
    for (const std::uint32_t s : free_slots) w.u32(s);
    w.u64(2);  // next query id
    w.u64(ring.size());  // events processed
    w.end_section();
    return w.finish();
  }
};

std::unique_ptr<cep::Engine> fid_engine() {
  auto engine = std::make_unique<cep::Engine>();
  engine->register_query(
      cep::parse_epl("SELECT count(*) AS n FROM audit GROUP BY fid WINDOW TIME 10s"));
  return engine;
}

snapshot::Reader load_engine(const std::string& file, cep::Engine& engine,
                             std::vector<snapshot::Section>& sections) {
  EXPECT_FALSE(snapshot::parse_file(file, sections).has_value());
  snapshot::Reader r(sections.at(0).data, sections.at(0).size);
  engine.load_state(r);
  return r;
}

TEST(EngineSnapshot, HandWrittenSectionsLoad) {
  const cep::QueryId id{1};
  {
    SCOPED_TRACE("int key");
    auto engine = fid_engine();
    std::vector<snapshot::Section> sections;
    const snapshot::Reader r = load_engine(EngineSection{}.file(), *engine, sections);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    const auto rows = engine->snapshot(id);
    ASSERT_EQ(rows.size(), 1U);
    EXPECT_EQ(rows[0].values.get_string("fid"), "7");
    EXPECT_EQ(rows[0].values.get_int("n"), 1);
    engine->advance_to(sim::SimTime{sim::seconds(60.0).micros()});
    EXPECT_TRUE(engine->snapshot(id).empty());
  }
  {
    SCOPED_TRACE("string key");
    EngineSection sec;
    sec.strings = {{false, ""}, {true, "/a"}};
    sec.string_free = {0};
    sec.slots = {{1, 3, 1, 1}};
    auto engine = fid_engine();
    std::vector<snapshot::Section> sections;
    const snapshot::Reader r = load_engine(sec.file(), *engine, sections);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_EQ(engine->interned_strings(), 1U);
    const auto rows = engine->snapshot(id);
    ASSERT_EQ(rows.size(), 1U);
    EXPECT_EQ(rows[0].values.get_string("fid"), "/a");
    engine->advance_to(sim::SimTime{sim::seconds(60.0).micros()});
    EXPECT_EQ(engine->interned_strings(), 0U);
  }
}

TEST(EngineSnapshot, WindowEntryNamingNoSlotIsRejected) {
  // A CRC-valid section whose single window entry names pool slot 5 of an
  // empty pool: eviction would index past the pool.
  EngineSection sec;
  sec.ring = {{1000, 5}};
  sec.buckets.clear();
  sec.slots.clear();
  auto engine = fid_engine();
  std::vector<snapshot::Section> sections;
  const snapshot::Reader r = load_engine(sec.file(), *engine, sections);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, snapshot::ErrorCode::kBadSection) << r.error().to_string();
}

TEST(EngineSnapshot, InconsistentCrossReferencesAreRejected) {
  struct Case {
    const char* what;
    void (*edit)(EngineSection&);
  };
  const Case cases[] = {
      {"window entry names a dead slot",
       [](EngineSection& s) {
         s.slots = {{0, 0, 0, 7}};
         s.buckets.assign(16, kEmptyBucket);
         s.free_slots = {0};
       }},
      {"count above the slot's window entries", [](EngineSection& s) { s.slots[0].count = 2; }},
      {"window entry missing from a live slot's count",
       [](EngineSection& s) { s.ring.push_back({2000, 0}); }},
      {"bucket names a slot past the pool", [](EngineSection& s) { s.buckets[5] = 9; }},
      {"bucket names a dead slot",
       [](EngineSection& s) {
         s.slots.push_back({0, 5, 0, 8});
         s.buckets[5] = 1;
         s.free_slots = {1};
       }},
      {"slot's cached bucket points elsewhere", [](EngineSection& s) { s.slots[0].bucket = 4; }},
      {"live slot named by no bucket",
       [](EngineSection& s) { s.buckets.assign(16, kEmptyBucket); }},
      {"live slot and no bucket table", [](EngineSection& s) { s.buckets.clear(); }},
      {"bucket table with no empty bucket",
       [](EngineSection& s) {
         s.buckets.assign(16, kTombBucket);
         s.buckets[3] = 0;
       }},
      {"bucket table size not a power of two",
       [](EngineSection& s) { s.buckets.resize(24, kEmptyBucket); }},
      {"freelist names a live slot", [](EngineSection& s) { s.free_slots = {0}; }},
      {"freelist names a slot past the pool", [](EngineSection& s) { s.free_slots = {4}; }},
      {"freelist misses a dead slot",
       [](EngineSection& s) { s.slots.push_back({0, 0, 0, 0}); }},
      {"freelist names a slot twice",
       [](EngineSection& s) {
         s.slots.push_back({0, 0, 0, 0});
         s.free_slots = {1, 1};
       }},
      {"string id past the table", [](EngineSection& s) { s.slots[0].mask = 1; }},
      {"string id names a free id",
       [](EngineSection& s) {
         s.strings = {{false, ""}};
         s.string_free = {0};
         s.slots[0] = {1, 3, 1, 0};
       }},
      {"mask bit above the key width", [](EngineSection& s) { s.slots[0].mask = 2; }},
      {"string no group holds", [](EngineSection& s) { s.strings = {{true, "/zzz"}}; }},
      {"string table holds an int spelling",
       [](EngineSection& s) {
         s.strings = {{true, "7"}};
         s.slots[0] = {1, 3, 1, 0};
       }},
      {"duplicate string",
       [](EngineSection& s) {
         s.strings = {{true, "/a"}, {true, "/a"}};
         s.slots[0] = {1, 3, 1, 0};
       }},
      {"string freelist names a live id",
       [](EngineSection& s) {
         s.strings = {{true, "/a"}};
         s.string_free = {0};
         s.slots[0] = {1, 3, 1, 0};
       }},
      {"string freelist misses a free id",
       [](EngineSection& s) { s.strings = {{false, ""}}; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    EngineSection sec;
    c.edit(sec);
    auto engine = fid_engine();
    std::vector<snapshot::Section> sections;
    const snapshot::Reader r = load_engine(sec.file(), *engine, sections);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, snapshot::ErrorCode::kBadSection) << r.error().to_string();
  }
}

/// An engine with string, int, multi-column, numeric-aggregate and length
/// window queries, fed `n` events from `seed`.
std::unique_ptr<cep::Engine> busy_engine(std::uint32_t seed, int n) {
  auto engine = std::make_unique<cep::Engine>();
  for (const char* epl :
       {"SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY fid, blk "
        "WINDOW TIME 30s",
        "SELECT count(*) AS n, sum(bytes) AS s, min(bytes) AS mn, max(bytes) AS mx "
        "FROM audit GROUP BY src WINDOW TIME 20s",
        "SELECT count(*) AS n FROM audit GROUP BY dn WINDOW LENGTH 50"}) {
    engine->register_query(cep::parse_epl(epl));
  }
  std::mt19937 rng{seed};
  for (int i = 0; i < n; ++i) {
    cep::Event e{sim::SimTime{static_cast<std::int64_t>(i) * 100000}, "audit"};
    e.with_string("cmd", rng() % 2 == 0 ? "read" : "open");
    e.with_int("fid", static_cast<std::int64_t>(rng() % 30));
    if (rng() % 4 != 0) {
      e.with_int("blk", static_cast<std::int64_t>(rng() % 5));
    }
    e.with_string("src", "/f" + std::to_string(rng() % 20));
    e.with_int("bytes", static_cast<std::int64_t>(rng() % 1000));
    e.with_int("dn", static_cast<std::int64_t>(rng() % 7));
    engine->push(e);
  }
  return engine;
}

TEST(EngineSnapshot, MutatedSectionsAreRejectedOrUsable) {
  // Mutations inside a CRC-valid engine section: each load either fails
  // with a structured error or leaves an engine that survives pushes,
  // reads and eviction and still saves a loadable section (ASan runs this
  // suite in CI).
  std::string payload;
  {
    auto donor = busy_engine(7, 600);
    snapshot::Writer w;
    w.begin_section(1);
    donor->save_state(w);
    w.end_section();
    std::vector<snapshot::Section> sections;
    const std::string file = w.finish();
    ASSERT_FALSE(snapshot::parse_file(file, sections).has_value());
    payload.assign(sections.at(0).data, sections.at(0).size);
  }
  std::mt19937 rng{42};
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    std::string mutated = payload;
    for (std::uint32_t k = 0, edits = 1 + rng() % 3; k < edits; ++k) {
      const std::size_t at = rng() % (mutated.size() - 4);
      if (rng() % 2 == 0) {
        mutated[at] = static_cast<char>(mutated[at] ^ (1 << (rng() % 8)));
      } else {  // a plausible small index or a bucket sentinel
        const std::uint32_t v = rng() % 3 == 0 ? 0xFFFFFFFEU - rng() % 2 : rng() % 64;
        std::memcpy(mutated.data() + at, &v, sizeof v);
      }
    }
    snapshot::Writer w;
    w.begin_section(1);
    w.raw(mutated.data(), mutated.size());
    w.end_section();
    const std::string file = w.finish();
    auto engine = busy_engine(7, 0);
    std::vector<snapshot::Section> sections;
    snapshot::Reader r = load_engine(file, *engine, sections);
    if (!r.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    std::mt19937 ev_rng{static_cast<std::uint32_t>(iter)};
    for (int i = 0; i < 40; ++i) {
      cep::Event e{sim::SimTime{60000000 + static_cast<std::int64_t>(i) * 100000}, "audit"};
      e.with_string("cmd", "read");
      e.with_int("fid", static_cast<std::int64_t>(ev_rng() % 30));
      e.with_string("src", "/f" + std::to_string(ev_rng() % 20));
      e.with_int("bytes", 5);
      e.with_int("dn", static_cast<std::int64_t>(ev_rng() % 7));
      engine->push(e);
    }
    for (std::uint64_t q = 1; q <= 3; ++q) {
      (void)engine->snapshot(cep::QueryId{q});
    }
    engine->advance_to(sim::SimTime{sim::seconds(600.0).micros()});
    // Whatever the accepted values were, the engine kept its pool
    // consistent: what it saves now loads again.
    snapshot::Writer again;
    again.begin_section(1);
    engine->save_state(again);
    again.end_section();
    auto reloaded = busy_engine(7, 0);
    std::vector<snapshot::Section> again_sections;
    const snapshot::Reader r2 = load_engine(again.finish(), *reloaded, again_sections);
    EXPECT_TRUE(r2.ok()) << r2.error().to_string();
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace erms
