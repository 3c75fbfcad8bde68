#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/simulation.h"

namespace erms::net {
namespace {

/// 2 racks × 2 nodes. Disk 80 MB/s, NIC 125 MB/s, uplink 100 MB/s so the
/// inter-rack constraint is visible.
FabricSpec small_fabric() {
  FabricSpec spec;
  spec.rack_count = 2;
  spec.rack_uplink_bw = 100.0e6;
  for (int i = 0; i < 4; ++i) {
    FabricSpec::Node n;
    n.rack = i / 2;
    n.nic_bw = 125.0e6;
    n.disk_bw = 80.0e6;
    spec.nodes.push_back(n);
  }
  return spec;
}

TEST(Network, RejectsEmptySpec) {
  sim::Simulation sim;
  EXPECT_THROW(NetworkModel(sim, FabricSpec{}), std::invalid_argument);
}

TEST(Network, RejectsBadRack) {
  sim::Simulation sim;
  FabricSpec spec;
  spec.rack_count = 1;
  FabricSpec::Node n;
  n.rack = 3;
  spec.nodes.push_back(n);
  EXPECT_THROW(NetworkModel(sim, spec), std::invalid_argument);
}

TEST(Network, SingleFlowDiskBound) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  // 80 MB over a disk-bound path (disk 80 MB/s < NIC) within one rack.
  bool done = false;
  net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);
  EXPECT_EQ(net.total_bytes_completed(), 80'000'000u);
  EXPECT_EQ(net.inter_rack_bytes(), 0u);
}

TEST(Network, LocalReadUsesOnlyDisk) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  bool done = false;
  net.start_flow(2, 2, 40'000'000, {}, [&](FlowId) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now().seconds(), 0.5, 1e-5);  // 40 MB at 80 MB/s
}

TEST(Network, InterRackCountsUplinkTraffic) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  net.start_flow(0, 2, 10'000'000, {}, nullptr);
  sim.run();
  EXPECT_EQ(net.inter_rack_bytes(), 10'000'000u);
}

// n equal flows started in one event all read node 0's disk (80 MB/s), so
// each gets B/n and all drain at n·S/B. The n starts cost one pass.
class NetworkSharedDisk : public ::testing::TestWithParam<int> {};

TEST_P(NetworkSharedDisk, EqualFlowsShareSourceDisk) {
  const int n = GetParam();
  constexpr std::uint64_t kBytes = 40'000'000;  // S
  constexpr double kDiskBw = 80.0e6;            // B
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  std::vector<sim::SimTime> done;
  for (int i = 0; i < n; ++i) {
    net.start_flow(0, 1, kBytes, {}, [&](FlowId) { done.push_back(sim.now()); });
  }
  EXPECT_EQ(net.rebalance_passes(), 0u);
  sim.run_until(sim::SimTime{0});
  EXPECT_EQ(net.rebalance_passes(), 1u);
  sim.run();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(n));
  // The wakeup rounds the drain time up to the next microsecond, plus one.
  const sim::SimTime drain{static_cast<std::int64_t>(n * (kBytes / kDiskBw) * 1e6)};
  for (const sim::SimTime t : done) {
    EXPECT_GE(t, drain);
    EXPECT_LE(t, drain + sim::micros(2));
  }
  // One pass for the starts, then one per completion.
  EXPECT_EQ(net.rebalance_passes(), static_cast<std::uint64_t>(n) + 1);
}

INSTANTIATE_TEST_SUITE_P(Flows, NetworkSharedDisk, ::testing::Values(2, 7, 32),
                         ::testing::PrintToStringParamName());

TEST(Network, CompletionThatStartsNextFlowCostsOnePass) {
  // The handler's start lands before the queue is read again, so the
  // completion and the start share one pass.
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  std::uint64_t passes_in_handler = 0;
  net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) {
    passes_in_handler = net.rebalance_passes();
    net.start_flow(0, 1, 80'000'000, {}, nullptr);
  });
  sim.run();
  EXPECT_EQ(passes_in_handler, 1u);  // the first start's
  // First start, completion + second start, second completion.
  EXPECT_EQ(net.rebalance_passes(), 3u);
  EXPECT_NEAR(sim.now().seconds(), 2.0, 1e-5);
}

TEST(Network, FlowRateRightAfterStartIsPostChange) {
  // No queue read between the starts and the reads: flow_rate() runs the
  // pending pass itself and reports the max-min rates of the new flow set.
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  const FlowId a = net.start_flow(0, 1, 80'000'000, {}, nullptr);
  EXPECT_DOUBLE_EQ(net.flow_rate(a), 80.0e6);
  const FlowId b = net.start_flow(0, 1, 80'000'000, {}, nullptr);
  EXPECT_DOUBLE_EQ(net.flow_rate(a), 40.0e6);
  EXPECT_DOUBLE_EQ(net.flow_rate(b), 40.0e6);
  net.cancel_flow(a);
  EXPECT_DOUBLE_EQ(net.flow_rate(b), 80.0e6);
  EXPECT_EQ(net.rebalance_passes(), 3u);
  sim.run();
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(Network, IndependentFlowsDoNotInterfere) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  double t1 = 0.0;
  double t2 = 0.0;
  net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) { t1 = sim.now().seconds(); });
  net.start_flow(2, 3, 80'000'000, {}, [&](FlowId) { t2 = sim.now().seconds(); });
  sim.run();
  EXPECT_NEAR(t1, 1.0, 1e-5);
  EXPECT_NEAR(t2, 1.0, 1e-5);
}

TEST(Network, UplinkIsTheInterRackBottleneck) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  // Two flows from different rack-0 sources to different rack-1 sinks: each
  // alone could do 80 MB/s (disk), but the shared 100 MB/s uplink caps the
  // pair at 50 MB/s each.
  int done = 0;
  net.start_flow(0, 2, 50'000'000, {}, [&](FlowId) { ++done; });
  net.start_flow(1, 3, 50'000'000, {}, [&](FlowId) { ++done; });
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);
}

TEST(Network, RatesRebalanceWhenFlowFinishes) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  // Flow A: 40 MB from node 0. Flow B: 60 MB from node 0. Sharing the disk
  // at 40 MB/s each; A finishes at t=1s, then B runs at 80 MB/s:
  // B has 20 MB left → finishes at t=1.25s.
  double tb = 0.0;
  net.start_flow(0, 1, 40'000'000, {}, nullptr);
  net.start_flow(0, 1, 60'000'000, {}, [&](FlowId) { tb = sim.now().seconds(); });
  sim.run();
  EXPECT_NEAR(tb, 1.25, 1e-5);
}

TEST(Network, MaxMinFairnessConservation) {
  sim::Simulation sim;
  FabricSpec spec = small_fabric();
  NetworkModel net{sim, spec};
  // Saturate node 0's disk with 4 flows; the allocated rates must sum to no
  // more than the disk capacity and be equal (max-min).
  std::vector<FlowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net.start_flow(0, 1, 1'000'000'000, {}, nullptr));
  }
  double sum = 0.0;
  for (const FlowId id : ids) {
    const double r = net.flow_rate(id);
    EXPECT_NEAR(r, 20.0e6, 1e3);
    sum += r;
  }
  EXPECT_LE(sum, 80.0e6 * (1.0 + 1e-9));
  for (const FlowId id : ids) {
    net.cancel_flow(id);
  }
}

TEST(Network, SameInstantCompletionsKeepQueueOrder) {
  // Two equal flows on disjoint paths drain in the same microsecond. A dry
  // run finds that instant.
  sim::SimTime at;
  {
    sim::Simulation sim;
    NetworkModel net{sim, small_fabric()};
    net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) { at = sim.now(); });
    net.start_flow(2, 3, 80'000'000, {}, nullptr);
    sim.run();
  }
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  std::vector<std::string> order;
  sim.schedule_at(at, [&] { order.emplace_back("queued before the starts"); });
  const FlowId a = net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) {
    order.emplace_back("flow A");
    sim.schedule_after(sim::micros(0), [&] { order.emplace_back("scheduled by A's handler"); });
  });
  const FlowId b =
      net.start_flow(2, 3, 80'000'000, {}, [&](FlowId) { order.emplace_back("flow B"); });
  sim.schedule_at(at, [&] { order.emplace_back("queued after the starts"); });
  ASSERT_LT(a, b);
  sim.run();
  EXPECT_EQ(sim.now(), at);
  EXPECT_EQ(order, (std::vector<std::string>{"queued before the starts", "flow A",
                                             "queued after the starts", "flow B",
                                             "scheduled by A's handler"}));
}

TEST(Network, CancelPreventsCompletion) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  bool fired = false;
  const FlowId id = net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) { fired = true; });
  net.cancel_flow(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(Network, CancelFreesBandwidthForOthers) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  double t = 0.0;
  const FlowId victim = net.start_flow(0, 1, 1'000'000'000, {}, nullptr);
  net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) { t = sim.now().seconds(); });
  sim.schedule_after(sim::seconds(0.5), [&] { net.cancel_flow(victim); });
  sim.run();
  // 0.5s at 40 MB/s (20 MB) + 60 MB at 80 MB/s (0.75s) = 1.25s.
  EXPECT_NEAR(t, 1.25, 1e-5);
}

TEST(Network, DstDiskConstrainsWrites) {
  sim::Simulation sim;
  FabricSpec spec = small_fabric();
  spec.nodes[1].disk_bw = 40.0e6;  // slow destination disk
  NetworkModel net{sim, spec};
  NetworkModel::FlowOptions opts;
  opts.src_disk = true;
  opts.dst_disk = true;
  net.start_flow(0, 1, 40'000'000, opts, nullptr);
  sim.run();
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);  // bound by 40 MB/s write
}

TEST(Network, RateCapLimitsLoneFlow) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  NetworkModel::FlowOptions opts;
  opts.max_rate = 20.0e6;  // well below the 80 MB/s disk
  net.start_flow(0, 1, 20'000'000, opts, nullptr);
  sim.run();
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);
}

TEST(Network, CappedFlowReleasesShareToOthers) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  NetworkModel::FlowOptions capped;
  capped.max_rate = 10.0e6;
  const FlowId slow = net.start_flow(0, 1, 1'000'000'000, capped, nullptr);
  const FlowId fast = net.start_flow(0, 1, 1'000'000'000, {}, nullptr);
  // Disk 80 MB/s: the capped flow takes 10, the other gets the remaining 70
  // (not the 40/40 plain fair split).
  EXPECT_NEAR(net.flow_rate(slow), 10.0e6, 1e3);
  EXPECT_NEAR(net.flow_rate(fast), 70.0e6, 1e3);
  net.cancel_flow(slow);
  net.cancel_flow(fast);
}

TEST(Network, CapAboveFairShareIsInert) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  NetworkModel::FlowOptions opts;
  opts.max_rate = 500.0e6;  // far above any link
  net.start_flow(0, 1, 80'000'000, opts, nullptr);
  sim.run();
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);  // still disk-bound
}

TEST(Network, ManyCappedFlowsSumWithinLink) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  NetworkModel::FlowOptions opts;
  opts.max_rate = 15.0e6;
  std::vector<FlowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net.start_flow(0, 1, 1'000'000'000, opts, nullptr));
  }
  // 4 × 15 = 60 MB/s < 80 MB/s disk: every flow runs at its cap.
  for (const FlowId id : ids) {
    EXPECT_NEAR(net.flow_rate(id), 15.0e6, 1e3);
  }
  for (const FlowId id : ids) {
    net.cancel_flow(id);
  }
}

TEST(Network, ZeroByteFlowCompletes) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  bool done = false;
  net.start_flow(0, 1, 0, {}, [&](FlowId) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now().micros(), 0);
}

TEST(Network, ManyFlowsAllComplete) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    net.start_flow(static_cast<std::size_t>(i % 4),
                   static_cast<std::size_t>((i + 1) % 4), 1'000'000, {},
                   [&](FlowId) { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 64);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(NetworkFaults, AbortAccountsPartialBytes) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  // Disk-bound at 80 MB/s; abort at 0.5 s → exactly 40 MB made it across.
  bool completed = false;
  std::uint64_t partial = 0;
  NetworkModel::FlowOptions opts;
  opts.on_abort = [&](FlowId, std::uint64_t bytes) { partial = bytes; };
  const FlowId id =
      net.start_flow(0, 1, 80'000'000, opts, [&](FlowId) { completed = true; });
  sim.schedule_at(sim::SimTime{sim::seconds(0.5).micros()}, [&] { net.abort_flow(id); });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_NEAR(static_cast<double>(partial), 40'000'000.0, 1e3);
  EXPECT_EQ(net.flows_aborted(), 1u);
  EXPECT_EQ(net.bytes_aborted(), partial);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(NetworkFaults, AbortFlowsTouchingNodeIsDeterministic) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  std::vector<std::uint64_t> aborted_order;
  NetworkModel::FlowOptions opts;
  opts.on_abort = [&](FlowId id, std::uint64_t) { aborted_order.push_back(id.value()); };
  net.start_flow(0, 1, 50'000'000, opts, [](FlowId) {});
  net.start_flow(2, 0, 50'000'000, opts, [](FlowId) {});
  net.start_flow(2, 3, 50'000'000, opts, [](FlowId) {});  // does not touch node 0
  sim.schedule_at(sim::SimTime{sim::seconds(0.1).micros()}, [&] {
    const auto victims = net.abort_flows_touching(0);
    EXPECT_EQ(victims.size(), 2u);
    // FlowId order, for replayable accounting.
    EXPECT_LT(victims[0].id.value(), victims[1].id.value());
  });
  sim.run();
  ASSERT_EQ(aborted_order.size(), 2u);
  EXPECT_LT(aborted_order[0], aborted_order[1]);
  EXPECT_EQ(net.flows_aborted(), 2u);
  EXPECT_EQ(net.active_flows(), 0u);  // third flow ran to completion
}

TEST(NetworkFaults, TimeoutAbortsSlowFlow) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  bool completed = false;
  bool aborted = false;
  NetworkModel::FlowOptions opts;
  opts.timeout = sim::seconds(0.25);
  opts.on_abort = [&](FlowId, std::uint64_t) { aborted = true; };
  net.start_flow(0, 1, 80'000'000, opts, [&](FlowId) { completed = true; });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_TRUE(aborted);
  EXPECT_NEAR(sim.now().seconds(), 0.25, 1e-5);
}

TEST(NetworkFaults, TimeoutCancelledOnCompletion) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  bool completed = false;
  bool aborted = false;
  NetworkModel::FlowOptions opts;
  opts.timeout = sim::seconds(10.0);
  opts.on_abort = [&](FlowId, std::uint64_t) { aborted = true; };
  net.start_flow(0, 1, 8'000'000, opts, [&](FlowId) { completed = true; });
  sim.run();
  EXPECT_TRUE(completed);
  EXPECT_FALSE(aborted);
}

TEST(NetworkFaults, NodeDegradationSlowsFlows) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  // Halve node 0's link capacities: the disk-bound 80 MB/s path drops to
  // 40 MB/s, so 40 MB takes 1 s instead of 0.5 s.
  net.set_node_degradation(0, 0.5);
  bool done = false;
  net.start_flow(0, 1, 40'000'000, {}, [&](FlowId) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);
  // Restoring mid-run speeds the next flow back up.
  net.set_node_degradation(0, 1.0);
  done = false;
  const sim::SimTime before = sim.now();
  net.start_flow(0, 1, 40'000'000, {}, [&](FlowId) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR((sim.now() - before).seconds(), 0.5, 1e-5);
}

}  // namespace
}  // namespace erms::net
