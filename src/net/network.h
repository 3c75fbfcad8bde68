#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "sim/simulation.h"
#include "util/ids.h"

namespace erms::snapshot {
class Reader;
class Writer;
}

namespace erms::net {

struct FlowTag {};
using FlowId = util::StrongId<FlowTag>;

/// Static description of the cluster fabric.
struct FabricSpec {
  struct Node {
    std::size_t rack{0};
    double nic_bw{125.0e6};   // bytes/s (GbE ≈ 125 MB/s)
    double disk_bw{80.0e6};   // bytes/s (2012-era SATA)
  };
  std::vector<Node> nodes;
  std::size_t rack_count{1};
  /// Per-rack uplink to the core switch, each direction. An oversubscribed
  /// fabric has rack_uplink_bw < sum of member NIC bandwidth.
  double rack_uplink_bw{500.0e6};
};

/// Event-driven fluid-flow network model with max-min fair bandwidth
/// sharing. Every transfer (block read, replication pipeline hop) is a flow
/// whose path claims capacity on: the source disk (optional), source NIC,
/// rack uplinks when crossing racks, destination NIC, and destination disk
/// (optional, for writes). Rates are recomputed by progressive filling after
/// flows start or finish, over only the links some flow uses.
///
/// Completions ride on one simulation event per fabric, the *wakeup*. Every
/// rebalance computes each flow's completion time (now for a drained flow,
/// none for a stalled one, otherwise the drain time rounded up to the next
/// microsecond), cancels the wakeup and reschedules it at the earliest
/// (time, FlowId); firing it completes that flow. The ordering contract
/// this gives: flows finishing in the same microsecond complete in FlowId
/// order, each one after the events queued for that instant before the
/// latest rebalance and before those queued after it. A completion
/// rebalances before it calls its handler, so an event the handler
/// schedules for the same instant runs after the next flow's completion.
///
/// Rebalances are coalesced. A change (start, cancel, abort, completion,
/// spurious wakeup, degradation) charges progress, marks the fabric dirty,
/// cancels the wakeup and reserves the queue sequence number a pass would
/// have given the new wakeup at that moment. One pass then runs per burst
/// of changes: from a Simulation pre-read hook just before the queue is next
/// read, or earlier when a rate is read (flow_rate, save_state). It
/// schedules the wakeup with the last reserved number. Rates are a pure
/// function of the flow set and the link capacities, and progress accrues
/// only when the clock moves, which happens only after a queue read. So
/// the rates, the completion times and the wakeup's (time, seq) equal those
/// of a pass per change, and the contract above holds with "rebalance"
/// meaning the change that reserved the wakeup's place.
///
/// This is what makes replica count matter in the experiments: a single
/// replica's node saturates its disk/NIC as readers pile on, while extra
/// replicas on other nodes add capacity (paper Figs. 6, 8, 9).
class NetworkModel {
 public:
  using CompletionFn = std::function<void(FlowId)>;
  /// Abort notification: the flow was torn down before the last byte arrived
  /// (endpoint died, deadline expired, or an explicit abort). Receives the
  /// bytes that did make it across so callers can account partial transfers.
  using AbortFn = std::function<void(FlowId, std::uint64_t bytes_transferred)>;

  struct FlowOptions {
    bool src_disk = true;   // transfer reads from the source disk
    bool dst_disk = false;  // transfer writes to the destination disk
    /// Per-flow rate ceiling (bytes/s); 0 = uncapped. Models HDFS's
    /// throttled balancer/re-replication streams
    /// (dfs.datanode.balance.bandwidthPerSec).
    double max_rate = 0.0;
    /// Per-flow deadline watchdog; if the flow is still active this long
    /// after starting it is aborted (on_abort fires). 0 = no deadline.
    sim::SimDuration timeout{};
    /// Fires instead of the completion callback when the flow is aborted.
    /// Flows without an abort handler are torn down silently (legacy
    /// cancel_flow semantics).
    AbortFn on_abort;
  };

  /// Everything a caller needs to account a flow that died mid-transfer.
  struct AbortedFlow {
    FlowId id;
    std::size_t src{0};
    std::size_t dst{0};
    std::uint64_t bytes_transferred{0};
    std::uint64_t total_bytes{0};
  };

  /// Registers the fabric's pre-read hook with `simulation`, which must
  /// outlive the fabric.
  NetworkModel(sim::Simulation& simulation, FabricSpec spec);
  ~NetworkModel();

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  /// Start a transfer of `bytes` from node `src` to node `dst` (indices into
  /// the spec). src == dst models a local read: the path is that node's
  /// disk alone, crossed once whatever the disk options. `on_done` fires on
  /// the simulation clock when the last byte arrives.
  FlowId start_flow(std::size_t src, std::size_t dst, std::uint64_t bytes,
                    FlowOptions options, CompletionFn on_done);

  /// Abort a flow; its completion callback never fires. No-op if already
  /// finished.
  void cancel_flow(FlowId id);

  /// Abort a flow and fire its abort handler (if any) with the bytes that
  /// made it across. No-op if already finished.
  void abort_flow(FlowId id);

  /// Tear down every flow whose source or destination is `node` — what a
  /// node crash does to its in-flight transfers. Partial bytes are charged
  /// to the abort counters and each flow's abort handler fires (after all
  /// victims are removed, so handlers may start replacement flows). Returns
  /// the aborted flows in FlowId order for deterministic accounting.
  std::vector<AbortedFlow> abort_flows_touching(std::size_t node);

  /// Scale a node's disk and NIC link capacities to `factor` × their spec
  /// values (0 < factor ≤ 1 degrades; 1 restores; 0 partitions the node —
  /// its flows stall until aborted or restored).
  void set_node_degradation(std::size_t node, double factor);

  /// Scale a rack's uplink capacities, both directions. factor as above.
  void set_rack_degradation(std::size_t rack, double factor);

  [[nodiscard]] double node_degradation(std::size_t node) const;

  /// Current rate (bytes/s) of an active flow; 0 if finished/unknown. Runs
  /// a pending pass first.
  [[nodiscard]] double flow_rate(FlowId id);

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }
  [[nodiscard]] std::size_t node_count() const { return spec_.nodes.size(); }
  [[nodiscard]] const FabricSpec& spec() const { return spec_; }

  /// Aggregate counters for the experiment harnesses.
  [[nodiscard]] std::uint64_t total_bytes_completed() const { return bytes_completed_; }
  [[nodiscard]] std::uint64_t inter_rack_bytes() const { return inter_rack_bytes_; }
  [[nodiscard]] std::uint64_t flows_aborted() const { return flows_aborted_; }
  [[nodiscard]] std::uint64_t bytes_aborted() const { return bytes_aborted_; }
  /// Progressive-filling passes run so far (one per burst of changes).
  [[nodiscard]] std::uint64_t rebalance_passes() const { return rebalance_passes_; }

  /// Attach (nullptr detaches) a metrics registry: flow start/complete
  /// counters, transferred bytes, an active-flow gauge and a flow-duration
  /// histogram. Ids resolve once here; detached costs one null test per
  /// flow event.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Snapshot support (src/snapshot/): link capacities (degradation
  /// episodes straddle snapshots), the flow-id sequence and the aggregate
  /// counters. Flows hold closures and must be drained first — save runs a
  /// pending pass and asserts active_flows() == 0, load requires a
  /// same-spec fabric.
  void save_state(snapshot::Writer& w);
  void load_state(snapshot::Reader& r);

 private:
  // Link ids are indices into links_: per node disk / nic_out / nic_in, then
  // per rack uplink_out / uplink_in. `capacity` is the effective (possibly
  // degraded) value; `base` the spec value degradation factors scale.
  struct Link {
    double capacity;
    double base;
  };
  struct Flow {
    FlowId id;
    std::size_t src{0};
    std::size_t dst{0};
    std::vector<std::size_t> path;  // link indices
    double remaining;               // bytes
    double max_rate{0.0};           // 0 = uncapped
    double rate{0.0};               // bytes/s
    sim::SimTime started;
    sim::SimTime last_update;
    bool inter_rack{false};
    std::uint64_t total_bytes{0};
    CompletionFn on_done;
    AbortFn on_abort;
    sim::EventHandle deadline;
  };
  /// Progressive-filling state of one link during a rebalance.
  struct LinkState {
    double remaining_capacity{0.0};
    std::size_t unfrozen_flows{0};
  };

  [[nodiscard]] std::size_t disk_link(std::size_t node) const { return node * 3; }
  [[nodiscard]] std::size_t nic_out_link(std::size_t node) const { return node * 3 + 1; }
  [[nodiscard]] std::size_t nic_in_link(std::size_t node) const { return node * 3 + 2; }
  [[nodiscard]] std::size_t uplink_out_link(std::size_t rack) const {
    return spec_.nodes.size() * 3 + rack * 2;
  }
  [[nodiscard]] std::size_t uplink_in_link(std::size_t rack) const {
    return spec_.nodes.size() * 3 + rack * 2 + 1;
  }

  /// Charge progress to every flow for time elapsed since its last update.
  void advance_progress();

  /// Record a change to the flow set or the link capacities: mark the
  /// fabric dirty, cancel the wakeup and reserve its queue position. Call
  /// after advance_progress().
  void mark_dirty();

  /// Run the pending pass, if the fabric is dirty.
  void settle();

  /// Recompute all flow rates (progressive filling) and schedule the wakeup
  /// at the earliest completion, in the last reserved queue position.
  void rebalance();

  /// Freeze `flow` at `rate`, charging that rate to every link it crosses.
  void freeze(Flow& flow, double rate);

  void complete_flow(FlowId id);

  /// Remove one flow, charging partial bytes to the abort counters. Returns
  /// the aborted-flow record and its (moved-out) abort handler; the caller
  /// marks the fabric dirty and invokes handlers once all victims are gone.
  std::pair<AbortedFlow, AbortFn> detach_aborted(FlowId id);

  sim::Simulation& sim_;
  FabricSpec spec_;
  std::vector<Link> links_;
  std::vector<double> node_degradation_;
  /// Ordered by FlowId (= start order), not hashed: `rebalance()` subtracts
  /// link capacity and freezes flows *in iteration order*, so with float
  /// rounding the order is observable in the computed rates. A std::map
  /// makes that order part of the determinism contract on every platform
  /// instead of an accident of the hash table's bucket layout.
  std::map<FlowId, Flow> flows_;
  /// The one pending completion event (see the class comment).
  sim::EventHandle wakeup_;
  /// Set by mark_dirty(), cleared by the pass. While set, rates are stale
  /// and the wakeup is cancelled; `wakeup_seq_` holds its reserved place.
  bool dirty_{false};
  std::uint64_t wakeup_seq_{0};
  std::uint64_t hook_id_{0};
  std::uint64_t rebalance_passes_{0};
  /// Rebalance scratch, reused across calls. `link_state_` is indexed like
  /// links_ once sized and has every unfrozen_flows at 0 between calls;
  /// `busy_links_` holds the links some unfrozen flow crosses, `unfrozen_`
  /// the flows not yet frozen, in FlowId order.
  std::vector<LinkState> link_state_;
  std::vector<std::size_t> busy_links_;
  std::vector<Flow*> unfrozen_;
  util::IdGenerator<FlowId> flow_ids_{1};
  std::uint64_t bytes_completed_{0};
  std::uint64_t inter_rack_bytes_{0};
  std::uint64_t flows_aborted_{0};
  std::uint64_t bytes_aborted_{0};

  struct ObsIds {
    obs::CounterId flows_started, flows_completed, flows_cancelled;
    obs::CounterId flows_aborted, bytes_aborted;
    obs::CounterId bytes_completed, inter_rack_bytes;
    obs::GaugeId active_flows;
    obs::HistogramId flow_seconds;
  };
  obs::MetricsRegistry* metrics_{nullptr};
  ObsIds obs_ids_;
};

}  // namespace erms::net
