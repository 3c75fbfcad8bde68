#include "hdfs/cluster.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <limits>
#include <memory>

#include "obs/observability.h"
#include "snapshot/codec.h"

namespace erms::hdfs {

namespace {

/// Worst-of for aggregating per-block locality into a file-level figure.
ReadLocality worse(ReadLocality a, ReadLocality b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

double watts_of(const DataNode& node) {
  switch (node.state) {
    case NodeState::kStandby:
      return node.config.standby_watts;
    case NodeState::kDead:
      return 0.0;
    case NodeState::kActive:
    case NodeState::kCommissioning:
    case NodeState::kDecommissioning:
      return node.config.active_watts;
  }
  return 0.0;
}

}  // namespace

Cluster::Cluster(sim::Simulation& simulation, const Topology& topology, ClusterConfig config,
                 util::Logger& logger)
    : sim_(simulation),
      config_(config),
      log_(logger),
      rng_(config.seed),
      network_(simulation,
               [&topology, &config] {
                 net::FabricSpec spec;
                 spec.rack_count = topology.rack_count();
                 spec.rack_uplink_bw = config.rack_uplink_bw;
                 for (const NodeId n : topology.nodes()) {
                   net::FabricSpec::Node node;
                   node.rack = topology.rack_of(n).value();
                   node.nic_bw = topology.config_of(n).nic_bw;
                   node.disk_bw = topology.config_of(n).disk_bw;
                   spec.nodes.push_back(node);
                 }
                 return spec;
               }()),
      placement_(std::make_shared<DefaultPlacementPolicy>()) {
  namespace_.set_shards(std::max<std::size_t>(config_.namespace_shards, 1));
  for (const NodeId n : topology.nodes()) {
    DataNode node;
    node.id = n;
    node.rack = topology.rack_of(n);
    node.config = topology.config_of(n);
    node.state = NodeState::kActive;
    node.last_energy_update = sim_.now();
    nodes_.push_back(std::move(node));
  }
}

// ----- observability --------------------------------------------------------

void Cluster::set_observability(obs::Observability* obs) {
  obs_ = obs;
  obs_ids_ = {};
  if (obs == nullptr) {
    return;
  }
  obs::MetricsRegistry& r = obs->registry();
  obs_ids_.reads_completed = r.counter("hdfs.reads.completed");
  obs_ids_.reads_rejected = r.counter("hdfs.reads.rejected");
  obs_ids_.reads_degraded = r.counter("hdfs.reads.degraded");
  obs_ids_.read_bytes = r.counter("hdfs.read.bytes");
  obs_ids_.corruptions = r.counter("hdfs.corruptions.detected");
  obs_ids_.blocks_lost = r.counter("hdfs.blocks.lost");
  obs_ids_.rereplications = r.counter("hdfs.rereplications.completed");
  obs_ids_.replication_changes = r.counter("hdfs.replication.changes");
  obs_ids_.encodes = r.counter("hdfs.encodes.completed");
  obs_ids_.decodes = r.counter("hdfs.decodes.completed");
  obs_ids_.audit_events = r.counter("hdfs.audit.events");
  obs_ids_.recovery_retries = r.counter("hdfs.recovery.retries");
  obs_ids_.recoveries_abandoned = r.counter("hdfs.recovery.abandoned");
  obs_ids_.nodes_revived = r.counter("hdfs.nodes.revived");
  obs_ids_.flow_aborts = r.counter("hdfs.flows.aborted");
  obs_ids_.ec_repair_bytes = r.counter("hdfs.ec.repair.bytes");
  obs_ids_.ec_degraded_bytes = r.counter("hdfs.ec.degraded.bytes");
  obs_ids_.ec_repair_fanout = r.counter("hdfs.ec.repair.fanout");
  for (const std::string_view name : ec::registered_codec_names()) {
    obs_ids_.ec_repair_bytes_by_codec.push_back(
        r.counter("hdfs.ec.repair.bytes." + std::string(name)));
    obs_ids_.ec_degraded_bytes_by_codec.push_back(
        r.counter("hdfs.ec.degraded.bytes." + std::string(name)));
  }
  obs_ids_.bg_queue_depth = r.gauge("hdfs.background.queue_depth");
  obs_ids_.bg_streams = r.gauge("hdfs.background.streams");
  obs_ids_.read_seconds = r.histogram("hdfs.read.seconds", 0.0, 30.0, 60);
}

// ----- nodes ---------------------------------------------------------------

std::vector<NodeId> Cluster::nodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const DataNode& n : nodes_) {
    out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> Cluster::nodes_in_state(NodeState state) const {
  std::vector<NodeId> out;
  for (const DataNode& n : nodes_) {
    if (n.state == state) {
      out.push_back(n.id);
    }
  }
  return out;
}

bool Cluster::is_serving(NodeId id) const {
  const NodeState s = nodes_[id.value()].state;
  return s == NodeState::kActive || s == NodeState::kDecommissioning;
}

void Cluster::update_energy(DataNode& node) {
  const double elapsed = (sim_.now() - node.last_energy_update).seconds();
  node.energy_joules += watts_of(node) * elapsed;
  node.last_energy_update = sim_.now();
}

void Cluster::set_node_state(NodeId id, NodeState state) {
  DataNode& node = node_mutable(id);
  update_energy(node);
  node.state = state;
}

void Cluster::set_standby(NodeId id) {
  assert(node(id).blocks.empty() && "standby nodes must hold no blocks");
  set_node_state(id, NodeState::kStandby);
}

void Cluster::commission(NodeId id, std::function<void()> on_ready) {
  DataNode& node = node_mutable(id);
  if (node.state == NodeState::kActive || node.state == NodeState::kCommissioning) {
    if (on_ready) {
      sim_.schedule_after(sim::micros(0), std::move(on_ready));
    }
    return;
  }
  assert(node.state == NodeState::kStandby);
  set_node_state(id, NodeState::kCommissioning);
  sim_.schedule_after(config_.node_startup_delay, [this, id, cb = std::move(on_ready)] {
    if (node_mutable(id).state == NodeState::kCommissioning) {
      set_node_state(id, NodeState::kActive);
      if (log_.enabled(util::LogLevel::kInfo)) {
        log_.log(util::LogLevel::kInfo, "cluster",
                 "node " + std::to_string(id.value()) + " commissioned");
      }
      if (cb) {
        cb();
      }
    }
  });
}

bool Cluster::return_to_standby(NodeId id) {
  DataNode& node = node_mutable(id);
  if (!node.blocks.empty() || node.state != NodeState::kActive) {
    return false;
  }
  set_node_state(id, NodeState::kStandby);
  return true;
}

void Cluster::decommission(NodeId id, DoneCallback done) {
  DataNode& node = node_mutable(id);
  if (node.state != NodeState::kActive) {
    if (done) {
      sim_.schedule_after(sim::micros(0), [done] { done(false); });
    }
    return;
  }
  set_node_state(id, NodeState::kDecommissioning);
  // BlockId order, not hash order: the drain schedules one copy per block,
  // so iteration order decides flow start order and therefore the trace.
  std::vector<BlockId> to_move(node.blocks.begin(), node.blocks.end());
  std::sort(to_move.begin(), to_move.end());
  if (to_move.empty()) {
    set_node_state(id, NodeState::kStandby);
    if (done) {
      sim_.schedule_after(sim::micros(0), [done] { done(true); });
    }
    return;
  }

  auto remaining = std::make_shared<std::size_t>(to_move.size());
  auto all_ok = std::make_shared<bool>(true);
  for (const BlockId b : to_move) {
    queue_background([this, id, b, remaining, all_ok,
                      done](std::function<void()> finished) {
      if (!node_has_block(id, b)) {
        // Re-replication or a concurrent change already freed it.
        finished();
        if (--*remaining == 0 && finalize_decommission(id, *all_ok) && done) {
          done(*all_ok);
        }
        return;
      }
      const std::vector<NodeId> targets =
          placement_->choose_targets(*this, b, 1, std::nullopt, rng_);
      if (targets.empty()) {
        *all_ok = false;
        finished();
        if (--*remaining == 0 && finalize_decommission(id, *all_ok) && done) {
          done(*all_ok);
        }
        return;
      }
      move_replica(b, id, targets.front(),
                   [this, id, remaining, all_ok, done,
                    finished = std::move(finished)](bool ok) {
                     *all_ok = *all_ok && ok;
                     finished();
                     if (--*remaining == 0 && finalize_decommission(id, *all_ok) &&
                         done) {
                       done(*all_ok);
                     }
                   });
    });
  }
}

bool Cluster::finalize_decommission(NodeId id, bool drained) {
  DataNode& node = node_mutable(id);
  if (node.state != NodeState::kDecommissioning) {
    return true;  // state changed underneath (e.g. failure); report anyway
  }
  if (drained && node.blocks.empty()) {
    node.active_sessions = 0;
    set_node_state(id, NodeState::kStandby);
  }
  return true;
}

void Cluster::fail_node(NodeId id) {
  DataNode& node = node_mutable(id);
  if (node.state == NodeState::kDead) {
    return;
  }
  set_node_state(id, NodeState::kDead);
  node.active_sessions = 0;
  node.background_reads = 0;
  // The data is still on the dead node's disk; remember it so a revived
  // node can reconcile instead of re-copying everything.
  node.stale_blocks = node.blocks;
  std::vector<BlockId> lost(node.blocks.begin(), node.blocks.end());
  std::sort(lost.begin(), lost.end());
  if (obs_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::ActionKind::kNodeFailure;
    ev.at = sim_.now();
    ev.node = static_cast<std::int64_t>(id.value());
    ev.count = lost.size();
    obs_->trace().record(std::move(ev));
  }
  for (const BlockId b : lost) {
    remove_replica(b, id);
  }
  // Tear down every transfer touching the dead node before queuing
  // recovery: each flow's abort handler accounts partial bytes, and read /
  // copy retries issued from those handlers already see the node as dead.
  network_.abort_flows_touching(id.value());
  // Namenode re-replication monitor: queue recovery for every block that
  // dropped below its file's target replication.
  for (const BlockId b : lost) {
    const BlockInfo* info = namespace_.find_block(b);
    if (info == nullptr) {
      continue;
    }
    const std::size_t live = locations(b).size();
    if (live == 0) {
      const FileInfo* file = namespace_.find(info->file);
      const bool reconstructible = file != nullptr && file->erasure_coded;
      if (reconstructible) {
        enqueue_recovery(b);
      } else {
        ++blocks_lost_;
        if (obs_ != nullptr) {
          obs_->registry().add(obs_ids_.blocks_lost);
        }
        if (log_.enabled(util::LogLevel::kWarn)) {
          log_.log(util::LogLevel::kWarn, "cluster",
                   "block " + std::to_string(b.value()) + " lost (no replicas, no stripe)");
        }
      }
      continue;
    }
    const FileInfo* file = namespace_.find(info->file);
    const std::uint32_t target = info->is_parity ? 1 : (file != nullptr ? file->replication : 1);
    if (live < target) {
      enqueue_recovery(b);
    }
  }
  if (failure_listener_) {
    failure_listener_(id);
  }
}

bool Cluster::revive_node(NodeId id) {
  DataNode& node = node_mutable(id);
  if (node.state != NodeState::kDead) {
    return false;
  }
  set_node_state(id, NodeState::kActive);
  std::vector<BlockId> stale(node.stale_blocks.begin(), node.stale_blocks.end());
  std::sort(stale.begin(), stale.end());
  node.stale_blocks.clear();
  std::uint64_t reclaimed = 0;
  std::uint64_t surplus = 0;
  for (const BlockId b : stale) {
    const BlockInfo* info = namespace_.find_block(b);
    if (info == nullptr) {
      continue;  // file removed while the node was down
    }
    const FileInfo* file = namespace_.find(info->file);
    const std::uint32_t target = info->is_parity ? 1 : (file != nullptr ? file->replication : 1);
    const std::vector<NodeId> locs = locations(b);
    if (std::find(locs.begin(), locs.end(), id) != locs.end()) {
      continue;
    }
    if (locs.size() >= target) {
      ++surplus;  // target already met elsewhere: drop the stale copy
      continue;
    }
    add_replica(b, id);
    ++reclaimed;
  }
  ++nodes_revived_;
  if (obs_ != nullptr) {
    obs_->registry().add(obs_ids_.nodes_revived);
    obs::TraceEvent ev;
    ev.kind = obs::ActionKind::kNodeRecovered;
    ev.at = sim_.now();
    ev.node = static_cast<std::int64_t>(id.value());
    ev.count = reclaimed;
    ev.outcome = surplus > 0 ? "surplus_dropped" : "rejoined";
    obs_->trace().record(std::move(ev));
  }
  if (log_.enabled(util::LogLevel::kInfo)) {
    log_.log(util::LogLevel::kInfo, "cluster",
             "node " + std::to_string(id.value()) + " revived, reclaimed " +
                 std::to_string(reclaimed) + " replicas, dropped " + std::to_string(surplus));
  }
  return true;
}

void Cluster::corrupt_replica(BlockId block, NodeId node) {
  if (node_has_block(node, block)) {
    corrupt_replicas_.insert({block, node});
  }
}

bool Cluster::is_corrupt(BlockId block, NodeId node) const {
  return corrupt_replicas_.contains({block, node});
}

void Cluster::report_corrupt_replica(BlockId block, NodeId node) {
  if (!is_corrupt(block, node)) {
    return;
  }
  ++corruptions_detected_;
  if (obs_ != nullptr) {
    obs_->registry().add(obs_ids_.corruptions);
  }
  remove_replica(block, node);
  enqueue_recovery(block);
  if (log_.enabled(util::LogLevel::kWarn)) {
    log_.log(util::LogLevel::kWarn, "cluster",
             "corrupt replica reported: block " + std::to_string(block.value()) +
                 " on node " + std::to_string(node.value()));
  }
}

// ----- placement -------------------------------------------------------------

void Cluster::set_placement_policy(std::shared_ptr<PlacementPolicy> policy) {
  assert(policy != nullptr);
  placement_ = std::move(policy);
}

// ----- replicas --------------------------------------------------------------

void Cluster::add_replica(BlockId block, NodeId node_id) {
  if (block_locations_.size() <= block.value()) {
    block_locations_.resize(block.value() + 1);
  }
  util::SmallVec<NodeId, 4>& locs = block_locations_[block.value()];
  if (locs.contains(node_id)) {
    return;
  }
  locs.push_back(node_id);
  DataNode& node = node_mutable(node_id);
  node.blocks.insert(block);
  const BlockInfo* info = namespace_.find_block(block);
  if (info != nullptr) {
    node.used_bytes += info->size;
  }
}

void Cluster::remove_replica(BlockId block, NodeId node_id) {
  if (block.value() < block_locations_.size()) {
    block_locations_[block.value()].erase_value(node_id);
  }
  DataNode& node = node_mutable(node_id);
  if (node.blocks.erase(block) > 0) {
    const BlockInfo* info = namespace_.find_block(block);
    if (info != nullptr) {
      node.used_bytes -= std::min(node.used_bytes, info->size);
    }
  }
  corrupt_replicas_.erase({block, node_id});
}

std::vector<NodeId> Cluster::locations(BlockId block) const {
  const auto& locs = locations_view(block);
  return std::vector<NodeId>(locs.begin(), locs.end());
}

// Both read the block's location list (a few inline entries) rather than the
// node's block hash set; add_replica/remove_replica keep the two in step.
bool Cluster::node_has_block(NodeId node_id, BlockId block) const {
  return locations_view(block).contains(node_id);
}

std::size_t Cluster::file_blocks_on_node(FileId file, NodeId node_id) const {
  const FileInfo* info = namespace_.find(file);
  if (info == nullptr) {
    return 0;
  }
  std::size_t count = 0;
  for (const BlockId b : info->blocks) {
    count += node_has_block(node_id, b) ? 1 : 0;
  }
  for (const BlockId b : info->parity_blocks) {
    count += node_has_block(node_id, b) ? 1 : 0;
  }
  return count;
}

const ec::ErasureCodec* Cluster::codec_for(const FileInfo& file) const {
  const std::size_t k = file.blocks.size();
  const std::size_t m = file.parity_blocks.size();
  if (k == 0 || m == 0) {
    return nullptr;
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(file.ec_codec) << 40) |
                            (static_cast<std::uint64_t>(file.ec_locals) << 32) |
                            (static_cast<std::uint64_t>(k) << 16) |
                            static_cast<std::uint64_t>(m);
  const auto it = codec_cache_.find(key);
  if (it != codec_cache_.end()) {
    return it->second.get();
  }
  std::unique_ptr<ec::ErasureCodec> codec;
  if (file.ec_codec < ec::codec_kind_count()) {
    const auto kind = static_cast<ec::CodecKind>(file.ec_codec);
    ec::CodecSpec spec{kind, static_cast<std::uint32_t>(m), 0, 0};
    if (kind == ec::CodecKind::kAzureLrc) {
      // The stripe stores l; g is whatever remains of the parity count.
      spec.local_groups = file.ec_locals;
      spec.global_parities =
          file.ec_locals < m ? static_cast<std::uint32_t>(m) - file.ec_locals : 0;
      spec.parities = 0;
    }
    try {
      codec = ec::make_codec(spec, k);
    } catch (const std::invalid_argument&) {
      codec = nullptr;  // stripe wider than the field allows — legacy fallback
    }
    // normalize_spec may have bent the shape (e.g. a 1-parity Hitchhiker
    // bumped to 2); a codec that doesn't match the actual stripe is useless.
    if (codec != nullptr && codec->total_shards() != k + m) {
      codec = nullptr;
    }
  }
  return codec_cache_.emplace(key, std::move(codec)).first->second.get();
}

std::optional<Cluster::StripeReadSet> Cluster::plan_stripe_read(const FileInfo& file,
                                                               BlockId lost) const {
  const std::size_t k = file.blocks.size();
  const std::size_t n = k + file.parity_blocks.size();
  const auto shard_block = [&](std::size_t i) {
    return i < k ? file.blocks[i] : file.parity_blocks[i - k];
  };
  std::size_t lost_idx = n;
  std::vector<bool> present(n, false);
  std::vector<NodeId> source(n, NodeId{0});
  for (std::size_t i = 0; i < n; ++i) {
    const BlockId b = shard_block(i);
    if (b == lost) {
      lost_idx = i;
      continue;
    }
    for (const NodeId nd : locations_view(b)) {
      if (is_serving(nd)) {
        present[i] = true;
        source[i] = nd;
        break;
      }
    }
  }
  if (lost_idx == n) {
    return std::nullopt;
  }
  StripeReadSet out;
  const ec::ErasureCodec* codec = codec_for(file);
  if (codec != nullptr) {
    out.codec = static_cast<ec::CodecKind>(file.ec_codec);
    const auto plan = codec->plan_repair(lost_idx, present);
    if (!plan.has_value()) {
      return std::nullopt;
    }
    const std::size_t s = plan->subshards;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t cells = plan->cells_on(i);
      if (cells == 0) {
        continue;
      }
      const BlockInfo* sinfo = namespace_.find_block(shard_block(i));
      const std::uint64_t bytes = ec::RepairPlan::bytes_for(sinfo->size, cells, s);
      out.sources.push_back({shard_block(i), source[i], bytes});
      out.total_bytes += bytes;
    }
    return out;
  }
  // Legacy any-k full-block rule (pre-zoo behaviour, and the fallback for
  // stripes no GF(2^8) code can span): first k live shards, data first.
  for (std::size_t i = 0; i < n && out.sources.size() < k; ++i) {
    if (!present[i]) {
      continue;
    }
    const BlockInfo* sinfo = namespace_.find_block(shard_block(i));
    out.sources.push_back({shard_block(i), source[i], sinfo->size});
    out.total_bytes += sinfo->size;
  }
  if (out.sources.size() < k) {
    return std::nullopt;
  }
  return out;
}

void Cluster::record_repair_traffic(const StripeReadSet& plan, bool degraded) {
  if (obs_ == nullptr) {
    return;
  }
  const auto codec = static_cast<std::size_t>(plan.codec);
  obs::MetricsRegistry& r = obs_->registry();
  if (degraded) {
    r.add(obs_ids_.ec_degraded_bytes, plan.total_bytes);
    if (codec < obs_ids_.ec_degraded_bytes_by_codec.size()) {
      r.add(obs_ids_.ec_degraded_bytes_by_codec[codec], plan.total_bytes);
    }
  } else {
    r.add(obs_ids_.ec_repair_bytes, plan.total_bytes);
    r.add(obs_ids_.ec_repair_fanout, plan.sources.size());
    if (codec < obs_ids_.ec_repair_bytes_by_codec.size()) {
      r.add(obs_ids_.ec_repair_bytes_by_codec[codec], plan.total_bytes);
    }
  }
}

bool Cluster::file_available(FileId file) const {
  const FileInfo* info = namespace_.find(file);
  if (info == nullptr) {
    return false;
  }
  std::size_t live_shards = 0;
  std::size_t missing_data = 0;
  for (const BlockId b : info->blocks) {
    bool alive = false;
    for (const NodeId n : locations_view(b)) {
      alive = alive || is_serving(n);
    }
    if (alive) {
      ++live_shards;
    } else {
      ++missing_data;
    }
  }
  if (missing_data == 0) {
    return true;
  }
  if (!info->erasure_coded) {
    return false;
  }
  std::vector<bool> present(info->blocks.size() + info->parity_blocks.size(), false);
  for (std::size_t i = 0; i < info->blocks.size(); ++i) {
    for (const NodeId n : locations_view(info->blocks[i])) {
      if (is_serving(n)) {
        present[i] = true;
        break;
      }
    }
  }
  for (std::size_t j = 0; j < info->parity_blocks.size(); ++j) {
    for (const NodeId n : locations_view(info->parity_blocks[j])) {
      if (is_serving(n)) {
        present[info->blocks.size() + j] = true;
        ++live_shards;
        break;
      }
    }
  }
  // Ask the file's code whether the survivors span the data. For MDS codes
  // (RS, Hitchhiker) this is exactly "any k of k+m"; for LRC it is the
  // honest rank test — 10 live shards of an unrecoverable pattern do not
  // make the file available.
  if (const ec::ErasureCodec* codec = codec_for(*info)) {
    return codec->recoverable(present);
  }
  return live_shards >= info->blocks.size();
}

// ----- namespace & data -------------------------------------------------------

std::optional<FileId> Cluster::populate_file(const std::string& path, std::uint64_t size,
                                             std::optional<std::uint32_t> replication) {
  const std::uint32_t rep = replication.value_or(config_.default_replication);
  const auto file = namespace_.create(path, size, config_.block_size, rep);
  if (!file) {
    return std::nullopt;
  }
  const FileInfo* info = namespace_.find(*file);
  for (const BlockId b : info->blocks) {
    const std::vector<NodeId> targets =
        placement_->choose_targets(*this, b, rep, std::nullopt, rng_);
    for (const NodeId t : targets) {
      add_replica(b, t);
    }
  }
  emit_audit("create", *file, path, NodeId{0}, std::nullopt, std::nullopt);
  return file;
}

std::vector<std::optional<FileId>> Cluster::populate_files(
    const std::vector<Namespace::FileSpec>& specs, util::ThreadPool* pool) {
  // Reserve all dense tables from the spec so bulk ingest never rehashes
  // or regrows mid-populate.
  std::uint64_t total_blocks = 0;
  for (const Namespace::FileSpec& spec : specs) {
    if (spec.size == 0 || spec.block_size == 0) {
      continue;
    }
    total_blocks += (spec.size + spec.block_size - 1) / spec.block_size;
  }
  namespace_.reserve(namespace_.file_count() + specs.size(),
                     namespace_.block_id_bound() + total_blocks);
  block_locations_.reserve(namespace_.block_id_bound() + total_blocks + 1);

  std::vector<std::optional<FileId>> ids = namespace_.create_batch(specs, pool);

  // Placement stays serial: it draws from the cluster RNG, so target choice
  // is identical to a populate_file loop regardless of pool size.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!ids[i]) {
      continue;
    }
    const FileInfo* info = namespace_.find(*ids[i]);
    const std::uint32_t rep = info->replication;
    for (const BlockId b : info->blocks) {
      const std::vector<NodeId> targets =
          placement_->choose_targets(*this, b, rep, std::nullopt, rng_);
      for (const NodeId t : targets) {
        add_replica(b, t);
      }
    }
    emit_audit("create", *ids[i], info->path, NodeId{0}, std::nullopt, std::nullopt);
  }
  return ids;
}

std::optional<FileId> Cluster::write_file(const std::string& path, std::uint64_t size,
                                          NodeId writer, DoneCallback done,
                                          std::optional<std::uint32_t> replication) {
  const std::uint32_t rep = replication.value_or(config_.default_replication);
  const auto file = namespace_.create(path, size, config_.block_size, rep);
  if (!file) {
    if (done) {
      sim_.schedule_after(sim::micros(0), [done] { done(false); });
    }
    return std::nullopt;
  }
  emit_audit("create", *file, path, writer, std::nullopt, std::nullopt);

  // Write blocks one after another (HDFS streams a file block by block); a
  // block completes when every pipeline hop finishes.
  const FileInfo* info = namespace_.find(*file);
  auto blocks = std::make_shared<std::vector<BlockId>>(info->blocks);
  // The stored function captures only a weak_ptr to itself (a strong capture
  // would be a shared_ptr cycle — the recursion's continuations leak); each
  // continuation keeps the function alive with the locked shared_ptr.
  auto write_next = std::make_shared<std::function<void(std::size_t)>>();
  *write_next = [this, blocks, writer, done,
                 weak_next = std::weak_ptr(write_next)](std::size_t index) {
    const auto self = weak_next.lock();
    assert(self != nullptr);
    if (index >= blocks->size()) {
      if (done) {
        done(true);
      }
      return;
    }
    const BlockId b = (*blocks)[index];
    const BlockInfo* binfo = namespace_.find_block(b);
    const std::vector<NodeId> targets = placement_->choose_targets(
        *this, b, namespace_.find(binfo->file)->replication, writer, rng_);
    if (targets.empty()) {
      if (done) {
        done(false);
      }
      return;
    }
    // Pipeline: writer -> t0 -> t1 -> ... Each hop is a flow; the block is
    // committed when the slowest hop drains.
    auto remaining = std::make_shared<std::size_t>(targets.size());
    auto failed = std::make_shared<bool>(false);
    NodeId hop_src = writer;
    for (const NodeId t : targets) {
      net::NetworkModel::FlowOptions opts;
      opts.src_disk = hop_src != writer;  // the writer streams from memory
      opts.dst_disk = true;
      // A pipeline node died: the write fails (HDFS would rebuild the
      // pipeline; we surface the failure to the caller instead). Replicas
      // from hops that already landed stay registered.
      opts.on_abort = [this, b, t, failed, done](net::FlowId, std::uint64_t partial) {
        record_flow_abort(b, static_cast<std::int64_t>(t.value()), partial, "write_failed");
        if (!*failed) {
          *failed = true;
          if (done) {
            done(false);
          }
        }
      };
      network_.start_flow(hop_src.value(), t.value(), binfo->size, opts,
                          [this, b, t, remaining, failed, self, index](net::FlowId) {
                            if (is_serving(t)) {
                              add_replica(b, t);
                            }
                            if (--*remaining == 0 && !*failed) {
                              (*self)(index + 1);
                            }
                          });
      hop_src = t;
    }
  };
  (*write_next)(0);
  return file;
}

void Cluster::remove_file(FileId file) {
  const FileInfo* info = namespace_.find(file);
  if (info == nullptr) {
    return;
  }
  emit_audit("delete", info->id, info->path, NodeId{0}, std::nullopt, std::nullopt);
  // Free replicas while block sizes are still known, then drop metadata.
  std::vector<BlockId> blocks = info->blocks;
  blocks.insert(blocks.end(), info->parity_blocks.begin(), info->parity_blocks.end());
  for (const BlockId b : blocks) {
    for (const NodeId n : locations(b)) {
      remove_replica(b, n);
    }
  }
  namespace_.remove(file);
}

// ----- reads -------------------------------------------------------------------

void Cluster::record_flow_abort(std::optional<BlockId> block, std::int64_t node,
                                std::uint64_t partial_bytes, const char* what) {
  if (obs_ == nullptr) {
    return;
  }
  obs_->registry().add(obs_ids_.flow_aborts);
  obs::TraceEvent ev;
  ev.kind = obs::ActionKind::kFlowAborted;
  ev.at = sim_.now();
  if (block) {
    ev.block = static_cast<std::int64_t>(block->value());
    const BlockInfo* info = namespace_.find_block(*block);
    if (info != nullptr) {
      const FileInfo* file = namespace_.find(info->file);
      if (file != nullptr) {
        ev.path = file->path;
      }
    }
  }
  ev.node = node;
  ev.bytes_moved = partial_bytes;
  ev.outcome = what;
  obs_->trace().record(std::move(ev));
}

std::optional<NodeId> Cluster::pick_read_source(NodeId client, BlockId block) const {
  const auto& locs = locations_view(block);
  std::optional<NodeId> best;
  int best_score = std::numeric_limits<int>::max();
  for (const NodeId n : locs) {
    if (!is_serving(n)) {
      continue;
    }
    const DataNode& dn = nodes_[n.value()];
    if (dn.active_sessions >= dn.config.max_sessions) {
      continue;
    }
    // Score: locality dominates, then current load.
    int score = 0;
    if (n == client) {
      score = 0;
    } else if (rack_of(n) == rack_of(client)) {
      score = 1000;
    } else {
      score = 2000;
    }
    score += static_cast<int>(dn.active_sessions);
    if (score < best_score) {
      best_score = score;
      best = n;
    }
  }
  return best;
}

void Cluster::read_block(NodeId client, BlockId block, ReadCallback callback) {
  const BlockInfo* info = namespace_.find_block(block);
  if (info == nullptr) {
    ReadOutcome out;
    out.error = ReadError::kNoSuchBlock;
    sim_.schedule_after(sim::micros(0), [callback, out] { callback(out); });
    return;
  }
  const FileInfo* file = namespace_.find(info->file);
  const std::optional<NodeId> source = pick_read_source(client, block);

  emit_audit("read", file != nullptr ? file->id : FileId{0},
             file != nullptr ? file->path : std::string_view{"?"}, client, block,
             source, source.has_value());

  if (!source) {
    // Distinguish "no live replica" from "all replica holders busy".
    bool any_live = false;
    for (const NodeId n : locations_view(block)) {
      any_live = any_live || is_serving(n);
    }
    if (!any_live && file != nullptr && file->erasure_coded && !info->is_parity) {
      read_block_via_reconstruction(client, *info, std::move(callback));
      return;
    }
    ReadOutcome out;
    out.error = any_live ? ReadError::kAllBusy : ReadError::kNoReplica;
    if (any_live) {
      ++reads_rejected_;
      if (obs_ != nullptr) {
        obs_->registry().add(obs_ids_.reads_rejected);
      }
    }
    sim_.schedule_after(sim::micros(0), [callback, out] { callback(out); });
    return;
  }

  DataNode& server = node_mutable(*source);
  ++server.active_sessions;

  ReadLocality locality = ReadLocality::kRemote;
  if (*source == client) {
    locality = ReadLocality::kNodeLocal;
  } else if (rack_of(*source) == rack_of(client)) {
    locality = ReadLocality::kRackLocal;
  }

  const sim::SimTime start = sim_.now();
  net::NetworkModel::FlowOptions opts;
  opts.src_disk = true;
  opts.dst_disk = false;
  const NodeId src = *source;
  const std::uint64_t bytes = info->size;
  const BlockId bid = block;
  // Server died (or the link was torn down) mid-read: release the session
  // if the server survives and transparently retry another replica — or
  // reconstruct, exactly as a fresh read would.
  opts.on_abort = [this, src, client, bid, callback](net::FlowId, std::uint64_t partial) {
    DataNode& server = node_mutable(src);
    if (server.active_sessions > 0) {
      --server.active_sessions;
    }
    record_flow_abort(bid, static_cast<std::int64_t>(src.value()), partial, "read_retry");
    read_block(client, bid, callback);
  };
  // Corruption is a property of the bytes that leave the disk, so it is
  // sampled when the transfer starts: if another in-flight transfer detects
  // the same bad replica first (dropping it and erasing the namenode's
  // marker), this read still fails its checksum instead of laundering the
  // corrupt data into a successful read.
  const bool src_corrupt = is_corrupt(bid, src);
  network_.start_flow(
      src.value(), client.value(), bytes, opts,
      [this, src, client, bid, callback, start, bytes, locality, src_corrupt](net::FlowId) {
        DataNode& server = node_mutable(src);
        if (server.active_sessions > 0) {
          --server.active_sessions;
        }
        // Checksum verification at the client: a corrupt replica is
        // reported to the namenode, dropped, re-replicated from a clean
        // copy, and the read transparently retries elsewhere. The drop and
        // the detection count are attributed once — to the transfer that
        // finds the replica still registered.
        if (src_corrupt || is_corrupt(bid, src)) {
          if (node_has_block(src, bid)) {
            ++corruptions_detected_;
            if (obs_ != nullptr) {
              obs_->registry().add(obs_ids_.corruptions);
            }
            remove_replica(bid, src);
            enqueue_recovery(bid);
          }
          if (log_.enabled(util::LogLevel::kWarn)) {
            log_.log(util::LogLevel::kWarn, "cluster",
                     "checksum failure: block " + std::to_string(bid.value()) +
                         " on node " + std::to_string(src.value()));
          }
          read_block(client, bid, callback);
          return;
        }
        ++reads_completed_;
        ReadOutcome out;
        out.ok = true;
        out.locality = locality;
        out.duration = sim_.now() - start;
        out.bytes = bytes;
        if (obs_ != nullptr) {
          obs_->registry().add(obs_ids_.reads_completed);
          obs_->registry().add(obs_ids_.read_bytes, bytes);
          obs_->registry().observe(obs_ids_.read_seconds, out.duration.seconds());
        }
        callback(out);
      });
}

void Cluster::read_block_via_reconstruction(NodeId client, const BlockInfo& info,
                                            ReadCallback callback) {
  const FileInfo* file = namespace_.find(info.file);
  assert(file != nullptr);
  // Ask the file's code for its cheapest read set (LRC: the local group;
  // Hitchhiker: half-blocks; RS/legacy: any k whole shards).
  const auto plan = plan_stripe_read(*file, info.id);
  if (!plan.has_value()) {
    ReadOutcome out;
    out.error = ReadError::kNoReplica;
    sim_.schedule_after(sim::micros(0), [callback, out] { callback(out); });
    return;
  }
  record_repair_traffic(*plan, /*degraded=*/true);
  // Degraded read: pull the plan's shards in parallel and reconstruct at
  // the client.
  const sim::SimTime start = sim_.now();
  auto remaining = std::make_shared<std::size_t>(plan->sources.size());
  auto aborted = std::make_shared<bool>(false);
  const std::uint64_t bytes = info.size;
  const BlockId bid = info.id;
  for (const auto& [shard_block, shard_node, shard_bytes] : plan->sources) {
    net::NetworkModel::FlowOptions opts;
    opts.src_disk = true;
    // A shard holder died mid-decode: the first abort retries the whole
    // read (a fresh shard set is gathered); surviving shard flows drain
    // harmlessly and are ignored via the shared flag.
    opts.on_abort = [this, aborted, client, bid, callback,
                     sn = shard_node](net::FlowId, std::uint64_t partial) {
      record_flow_abort(bid, static_cast<std::int64_t>(sn.value()), partial,
                        "degraded_read_retry");
      if (*aborted) {
        return;
      }
      *aborted = true;
      read_block(client, bid, callback);
    };
    network_.start_flow(shard_node.value(), client.value(), shard_bytes, opts,
                        [this, remaining, aborted, callback, start, bytes](net::FlowId) {
                          if (*aborted || --*remaining > 0) {
                            return;
                          }
                          ++reads_completed_;
                          ReadOutcome out;
                          out.ok = true;
                          out.degraded = true;
                          out.locality = ReadLocality::kRemote;
                          out.duration = sim_.now() - start;
                          out.bytes = bytes;
                          if (obs_ != nullptr) {
                            obs_->registry().add(obs_ids_.reads_completed);
                            obs_->registry().add(obs_ids_.reads_degraded);
                            obs_->registry().add(obs_ids_.read_bytes, bytes);
                            obs_->registry().observe(obs_ids_.read_seconds,
                                                     out.duration.seconds());
                          }
                          callback(out);
                        });
  }
}

void Cluster::record_open(NodeId client, FileId file) {
  const FileInfo* info = namespace_.find(file);
  if (info != nullptr) {
    emit_audit("open", info->id, info->path, client, std::nullopt, std::nullopt);
  }
}

void Cluster::read_file(NodeId client, FileId file, ReadCallback callback) {
  const FileInfo* info = namespace_.find(file);
  if (info == nullptr) {
    ReadOutcome out;
    out.error = ReadError::kNoSuchBlock;
    sim_.schedule_after(sim::micros(0), [callback, out] { callback(out); });
    return;
  }
  emit_audit("open", info->id, info->path, client, std::nullopt, std::nullopt);

  auto blocks = std::make_shared<std::vector<BlockId>>(info->blocks);
  auto aggregate = std::make_shared<ReadOutcome>();
  aggregate->ok = true;
  aggregate->locality = ReadLocality::kNodeLocal;
  const sim::SimTime start = sim_.now();

  // Weak self-capture: a strong capture would make the stored function own
  // itself (shared_ptr cycle → leak); the per-block continuation holds the
  // locked shared_ptr instead, keeping the chain alive exactly as long as a
  // step is pending.
  auto read_next = std::make_shared<std::function<void(std::size_t)>>();
  *read_next = [this, blocks, client, callback, aggregate, start,
                weak_next = std::weak_ptr(read_next)](std::size_t i) {
    if (i >= blocks->size() || !aggregate->ok) {
      aggregate->duration = sim_.now() - start;
      callback(*aggregate);
      return;
    }
    const auto self = weak_next.lock();
    assert(self != nullptr);
    read_block(client, (*blocks)[i],
               [aggregate, self, i](const ReadOutcome& out) {
                 aggregate->ok = aggregate->ok && out.ok;
                 aggregate->error = out.ok ? aggregate->error : out.error;
                 aggregate->locality = worse(aggregate->locality, out.locality);
                 aggregate->degraded = aggregate->degraded || out.degraded;
                 aggregate->bytes += out.bytes;
                 (*self)(i + 1);
               });
  };
  (*read_next)(0);
}

// ----- replication management ---------------------------------------------------

void Cluster::queue_background(BackgroundJob job) {
  background_queue_.push_back(std::move(job));
  pump_background_queue();
}

void Cluster::pump_background_queue() {
  while (background_streams_ < config_.max_background_streams) {
    // Recovery work first — an under-replicated block is one failure away
    // from loss, while generic background jobs merely move data around.
    const auto finished = [this] {
      assert(background_streams_ > 0);
      --background_streams_;
      // Defer the pump so a synchronous chain of completions cannot recurse.
      sim_.schedule_after(sim::micros(0), [this] { pump_background_queue(); });
    };
    if (auto task = pop_recovery()) {
      ++background_streams_;
      run_recovery(*task, finished);
      continue;
    }
    if (background_queue_.empty()) {
      break;
    }
    BackgroundJob job = std::move(background_queue_.front());
    background_queue_.pop_front();
    ++background_streams_;
    job(finished);
  }
  if (obs_ != nullptr) {
    obs_->registry().set(obs_ids_.bg_queue_depth,
                         static_cast<double>(background_queue_.size() + recovery_queued_));
    obs_->registry().set(obs_ids_.bg_streams, static_cast<double>(background_streams_));
  }
}

void Cluster::copy_block(BlockId block, std::optional<NodeId> source, NodeId target,
                         DoneCallback done) {
  const BlockInfo* info = namespace_.find_block(block);
  if (info == nullptr || !is_serving(target) || node_has_block(target, block)) {
    if (done) {
      done(false);
    }
    return;
  }
  NodeId src = target;
  if (source && is_serving(*source)) {
    src = *source;
  } else {
    // Least-loaded live replica: spread transfer sources over every current
    // holder (including replicas added moments ago), so a direct jump to the
    // optimal factor fans out instead of draining one disk — this is what
    // makes "increase directly" beat "one by one" (paper Fig. 7).
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    bool found = false;
    for (const NodeId n : locations_view(block)) {
      if (!is_serving(n)) {
        continue;
      }
      const DataNode& dn = nodes_[n.value()];
      const std::uint64_t load =
          static_cast<std::uint64_t>(dn.background_reads) * 1000 + dn.active_sessions;
      if (load < best) {
        best = load;
        src = n;
        found = true;
      }
    }
    if (!found) {
      if (done) {
        done(false);
      }
      return;
    }
  }
  ++node_mutable(src).background_reads;
  net::NetworkModel::FlowOptions opts;
  opts.src_disk = src != target;
  opts.dst_disk = true;
  opts.max_rate = config_.background_bandwidth_cap;
  // Watchdog + endpoint-failure handling: a copy whose source or target
  // died (or that outlived its deadline on a degraded path) fails to the
  // caller, which retries through the recovery queue's backoff.
  opts.timeout = config_.background_copy_timeout;
  opts.on_abort = [this, block, src, target, done](net::FlowId, std::uint64_t partial) {
    DataNode& source_node = node_mutable(src);
    if (source_node.background_reads > 0) {
      --source_node.background_reads;
    }
    record_flow_abort(block, static_cast<std::int64_t>(target.value()), partial,
                      "copy_failed");
    if (done) {
      done(false);
    }
  };
  // Sampled at start for the same reason as read_block: a copy of corrupt
  // bytes is corrupt even if another transfer drops the source replica (and
  // its corruption marker) while this copy is in flight.
  const bool src_corrupt = is_corrupt(block, src);
  network_.start_flow(src.value(), target.value(), info->size, opts,
                      [this, block, src, target, done, src_corrupt](net::FlowId) {
                        DataNode& source_node = node_mutable(src);
                        if (source_node.background_reads > 0) {
                          --source_node.background_reads;
                        }
                        // Transfer checksums catch a corrupt source: the
                        // bad replica is dropped and the copy fails (the
                        // caller or the re-replication monitor retries from
                        // a clean replica). Detection is attributed to the
                        // transfer that finds the replica still registered.
                        if (src_corrupt || is_corrupt(block, src)) {
                          if (node_has_block(src, block)) {
                            ++corruptions_detected_;
                            if (obs_ != nullptr) {
                              obs_->registry().add(obs_ids_.corruptions);
                            }
                            remove_replica(block, src);
                            enqueue_recovery(block);
                          }
                          if (done) {
                            done(false);
                          }
                          return;
                        }
                        if (is_serving(target)) {
                          add_replica(block, target);
                          if (done) {
                            done(true);
                          }
                        } else if (done) {
                          done(false);
                        }
                      });
}

std::uint32_t Cluster::recovery_priority(BlockId block) const {
  std::size_t live = 0;
  for (const NodeId n : locations_view(block)) {
    live += is_serving(n) ? 1 : 0;
  }
  if (live == 0) {
    return 0;
  }
  return live == 1 ? 1 : 2;
}

void Cluster::enqueue_recovery(BlockId block) {
  if (recovery_tracked_.contains(block)) {
    return;  // a task for this block is already queued, running, or backing off
  }
  recovery_tracked_.insert(block);
  recovery_queue_[recovery_priority(block)].push_back(RecoveryTask{block, 0});
  ++recovery_queued_;
  pump_background_queue();
}

std::optional<Cluster::RecoveryTask> Cluster::pop_recovery() {
  if (recovery_queued_ == 0) {
    return std::nullopt;
  }
  for (auto& level : recovery_queue_) {
    if (level.empty()) {
      continue;
    }
    RecoveryTask task = level.front();
    level.pop_front();
    --recovery_queued_;
    return task;
  }
  return std::nullopt;
}

void Cluster::retry_or_abandon(RecoveryTask task) {
  ++task.attempts;
  if (task.attempts > config_.recovery_max_retries) {
    ++recoveries_abandoned_;
    recovery_tracked_.erase(task.block);
    bool any_live = false;
    for (const NodeId n : locations_view(task.block)) {
      any_live = any_live || is_serving(n);
    }
    if (!any_live) {
      // Out of retries with nothing left to copy from: the block is lost
      // unless a holder revives.
      ++blocks_lost_;
      if (obs_ != nullptr) {
        obs_->registry().add(obs_ids_.blocks_lost);
      }
    }
    if (obs_ != nullptr) {
      obs_->registry().add(obs_ids_.recoveries_abandoned);
    }
    if (log_.enabled(util::LogLevel::kWarn)) {
      log_.log(util::LogLevel::kWarn, "cluster",
               "recovery abandoned for block " + std::to_string(task.block.value()) +
                   " after " + std::to_string(config_.recovery_max_retries) + " retries");
    }
    return;
  }
  ++recovery_retries_;
  if (obs_ != nullptr) {
    obs_->registry().add(obs_ids_.recovery_retries);
  }
  sim::SimDuration backoff = config_.recovery_backoff;
  for (std::uint32_t i = 1; i < task.attempts && backoff < config_.recovery_backoff_cap;
       ++i) {
    backoff = backoff * 2;
  }
  backoff = std::min(backoff, config_.recovery_backoff_cap);
  sim_.schedule_after(backoff, [this, task] {
    recovery_queue_[recovery_priority(task.block)].push_back(task);
    ++recovery_queued_;
    pump_background_queue();
  });
}

void Cluster::run_recovery(RecoveryTask task, std::function<void()> finished) {
  const BlockId block = task.block;
  const BlockInfo* info = namespace_.find_block(block);
  if (info == nullptr) {
    recovery_tracked_.erase(block);
    finished();
    return;
  }
  const FileInfo* file = namespace_.find(info->file);
  const std::uint32_t target_rep =
      info->is_parity ? 1 : (file != nullptr ? file->replication : 1);
  std::size_t live = 0;
  for (const NodeId n : locations(block)) {
    live += is_serving(n) ? 1 : 0;
  }
  if (live >= target_rep) {
    recovery_tracked_.erase(block);  // recovered (e.g. a holder revived)
    finished();
    return;
  }
  if (live == 0) {
    if (file != nullptr && file->erasure_coded) {
      // Data shards and parities alike are rebuilt from the stripe.
      run_reconstruction(std::move(task), std::move(finished));
      return;
    }
    // Nothing to copy from; retry with backoff in case the holder revives.
    finished();
    retry_or_abandon(std::move(task));
    return;
  }
  const std::vector<NodeId> targets =
      placement_->choose_targets(*this, block, 1, std::nullopt, rng_);
  if (targets.empty()) {
    finished();
    retry_or_abandon(std::move(task));
    return;
  }
  const NodeId target = targets.front();
  copy_block(block, std::nullopt, target,
             [this, task = std::move(task), target,
              finished = std::move(finished)](bool ok) mutable {
               const BlockId block = task.block;
               if (!ok) {
                 finished();
                 retry_or_abandon(std::move(task));
                 return;
               }
               ++rereplications_completed_;
               if (obs_ != nullptr) {
                 obs_->registry().add(obs_ids_.rereplications);
                 obs::TraceEvent ev;
                 ev.kind = obs::ActionKind::kRereplication;
                 ev.at = sim_.now();
                 ev.block = static_cast<std::int64_t>(block.value());
                 ev.node = static_cast<std::int64_t>(target.value());
                 const BlockInfo* info = namespace_.find_block(block);
                 if (info != nullptr) {
                   ev.bytes_moved = info->size;
                   const FileInfo* file = namespace_.find(info->file);
                   if (file != nullptr) {
                     ev.path = file->path;
                   }
                 }
                 obs_->trace().record(std::move(ev));
               }
               // One replica restored; requeue (fresh attempt budget) until
               // the deficit is gone — run_recovery clears the tracking set
               // once the target count is met.
               task.attempts = 0;
               recovery_queue_[recovery_priority(block)].push_back(task);
               ++recovery_queued_;
               finished();
               pump_background_queue();
             });
}

void Cluster::run_reconstruction(RecoveryTask task, std::function<void()> finished) {
  const BlockId block = task.block;
  const BlockInfo* info = namespace_.find_block(block);
  const FileInfo* file = info != nullptr ? namespace_.find(info->file) : nullptr;
  if (info == nullptr || file == nullptr || !file->erasure_coded) {
    recovery_tracked_.erase(block);
    finished();
    return;
  }
  const std::vector<NodeId> targets =
      placement_->choose_targets(*this, block, 1, std::nullopt, rng_);
  if (targets.empty()) {
    finished();
    retry_or_abandon(std::move(task));
    return;
  }
  const NodeId target = targets.front();

  // Pull the code's repair read set to the target and rebuild there. LRC
  // reads its local group; Hitchhiker reads half-blocks; RS (and legacy
  // stripes) read any k whole shards.
  const auto plan = plan_stripe_read(*file, block);
  if (!plan.has_value()) {
    // Too many shards down right now; retry once some recover. The block is
    // only counted lost if retries run out with nothing live.
    finished();
    retry_or_abandon(std::move(task));
    return;
  }
  record_repair_traffic(*plan, /*degraded=*/false);
  const std::uint64_t plan_bytes = plan->total_bytes;
  const ec::CodecKind plan_codec = plan->codec;
  auto remaining = std::make_shared<std::size_t>(plan->sources.size());
  auto aborted = std::make_shared<bool>(false);
  auto shared_finished = std::make_shared<std::function<void()>>(std::move(finished));
  for (const auto& [shard_block, shard_node, shard_bytes] : plan->sources) {
    net::NetworkModel::FlowOptions opts;
    opts.src_disk = true;
    opts.dst_disk = true;
    opts.max_rate = config_.background_bandwidth_cap;
    opts.timeout = config_.background_copy_timeout;
    // A shard source (or the rebuild target) died mid-reconstruction: fail
    // this attempt once and go through the retry backoff; the other shard
    // flows drain harmlessly.
    opts.on_abort = [this, task, aborted, shared_finished,
                     sn = shard_node](net::FlowId, std::uint64_t partial) {
      record_flow_abort(task.block, static_cast<std::int64_t>(sn.value()), partial,
                        "reconstruction_failed");
      if (*aborted) {
        return;
      }
      *aborted = true;
      (*shared_finished)();
      retry_or_abandon(task);
    };
    network_.start_flow(
        shard_node.value(), target.value(), shard_bytes, opts,
        [this, block, target, remaining, aborted, shared_finished, task, plan_bytes,
         plan_codec](net::FlowId) {
          if (*aborted || --*remaining > 0) {
            return;
          }
          if (!is_serving(target)) {
            (*shared_finished)();
            retry_or_abandon(task);
            return;
          }
          add_replica(block, target);
          ++rereplications_completed_;
          if (obs_ != nullptr) {
            obs_->registry().add(obs_ids_.rereplications);
            obs::TraceEvent ev;
            ev.kind = obs::ActionKind::kRereplication;
            ev.at = sim_.now();
            ev.block = static_cast<std::int64_t>(block.value());
            ev.node = static_cast<std::int64_t>(target.value());
            ev.outcome = "reconstructed";
            ev.codec = to_string(plan_codec);
            ev.bytes_read = plan_bytes;
            const BlockInfo* info = namespace_.find_block(block);
            if (info != nullptr) {
              ev.bytes_moved = info->size;
              const FileInfo* file = namespace_.find(info->file);
              if (file != nullptr) {
                ev.path = file->path;
              }
            }
            obs_->trace().record(std::move(ev));
          }
          // Parity target is 1, data target is the file's (post-decode)
          // factor; requeue so run_recovery settles any remaining deficit
          // and clears the tracking set.
          recovery_queue_[recovery_priority(block)].push_back(
              RecoveryTask{block, 0});
          ++recovery_queued_;
          (*shared_finished)();
          pump_background_queue();
        });
  }
}

void Cluster::change_replication(FileId file, std::uint32_t target, IncreaseMode mode,
                                 DoneCallback done) {
  const FileInfo* info = namespace_.find(file);
  if (info == nullptr || target == 0) {
    if (done) {
      sim_.schedule_after(sim::micros(0), [done] { done(false); });
    }
    return;
  }
  emit_audit("setReplication", info->id, info->path, NodeId{0}, std::nullopt,
             std::nullopt);

  const std::uint32_t current = info->replication;
  namespace_.set_replication(file, target);

  if (target < current) {
    // Decrease: drop surplus replicas (policy decides which; ERMS prefers
    // standby nodes so no re-balancing is needed).
    std::vector<std::int64_t> removed;
    for (const BlockId b : info->blocks) {
      while (locations(b).size() > target) {
        const auto victim = placement_->choose_replica_to_remove(*this, b, rng_);
        if (!victim) {
          break;
        }
        remove_replica(b, *victim);
        if (obs_ != nullptr) {
          removed.push_back(static_cast<std::int64_t>(victim->value()));
        }
      }
    }
    if (obs_ != nullptr) {
      std::sort(removed.begin(), removed.end());
      removed.erase(std::unique(removed.begin(), removed.end()), removed.end());
      obs::TraceEvent ev;
      ev.kind = obs::ActionKind::kSetReplication;
      ev.at = sim_.now();
      ev.path = info->path;
      ev.rep_before = current;
      ev.rep_after = target;
      ev.targets = std::move(removed);  // nodes that lost replicas
      ev.outcome = "ok";
      obs_->registry().add(obs_ids_.replication_changes);
      obs_->trace().record(std::move(ev));
    }
    if (done) {
      sim_.schedule_after(sim::micros(0), [done] { done(true); });
    }
    return;
  }

  // Increase (or top-up at an unchanged factor — the deficit is computed
  // from actual block locations, not the metadata factor). kDirect queues
  // all extra replicas of all blocks at once; kOneByOne raises the factor
  // one step at a time, confirming each step before the next.
  if (mode == IncreaseMode::kDirect || target <= current + 1) {
    auto remaining = std::make_shared<std::size_t>(0);
    auto all_ok = std::make_shared<bool>(true);
    std::vector<std::pair<BlockId, NodeId>> copies;
    for (const BlockId b : info->blocks) {
      const std::size_t have = locations(b).size();
      if (have >= target) {
        continue;
      }
      const std::vector<NodeId> targets =
          placement_->choose_targets(*this, b, target - have, std::nullopt, rng_);
      for (const NodeId t : targets) {
        copies.emplace_back(b, t);
      }
    }
    *remaining = copies.size();
    if (copies.empty()) {
      if (obs_ != nullptr && target != current) {
        // Metadata-only change (every block already has enough replicas).
        obs::TraceEvent ev;
        ev.kind = obs::ActionKind::kSetReplication;
        ev.at = sim_.now();
        ev.path = info->path;
        ev.rep_before = current;
        ev.rep_after = target;
        ev.outcome = "ok";
        obs_->registry().add(obs_ids_.replication_changes);
        obs_->trace().record(std::move(ev));
      }
      if (done) {
        sim_.schedule_after(sim::micros(0), [done] { done(true); });
      }
      return;
    }
    // Proto trace event filled in up front (planned transfer volume and
    // target nodes), recorded once when the last copy lands.
    std::shared_ptr<obs::TraceEvent> ev;
    if (obs_ != nullptr) {
      ev = std::make_shared<obs::TraceEvent>();
      ev->kind = obs::ActionKind::kSetReplication;
      ev->path = info->path;
      ev->rep_before = current;
      ev->rep_after = target;
      std::vector<std::int64_t> gaining;
      for (const auto& [b, t] : copies) {
        const BlockInfo* binfo = namespace_.find_block(b);
        if (binfo != nullptr) {
          ev->bytes_moved += binfo->size;
        }
        gaining.push_back(static_cast<std::int64_t>(t.value()));
      }
      std::sort(gaining.begin(), gaining.end());
      gaining.erase(std::unique(gaining.begin(), gaining.end()), gaining.end());
      ev->targets = std::move(gaining);
    }
    for (const auto& [b, t] : copies) {
      queue_background([this, b = b, t = t, remaining, all_ok, ev,
                        done](std::function<void()> finished) {
        copy_block(b, std::nullopt, t,
                   [this, remaining, all_ok, ev, done,
                    finished = std::move(finished)](bool ok) {
                     *all_ok = *all_ok && ok;
                     finished();
                     if (--*remaining == 0) {
                       if (ev != nullptr && obs_ != nullptr) {
                         ev->at = sim_.now();
                         ev->outcome = *all_ok ? "ok" : "partial";
                         obs_->registry().add(obs_ids_.replication_changes);
                         obs_->trace().record(std::move(*ev));
                       }
                       if (done) {
                         done(*all_ok);
                       }
                     }
                   });
      });
    }
    return;
  }

  // One by one: raise the factor a step, poll until the step is confirmed,
  // then issue the next step. Weak self-capture avoids the shared_ptr cycle
  // a strong capture of `step` inside itself would create.
  auto step = std::make_shared<std::function<void(std::uint32_t)>>();
  *step = [this, file, target, done, weak_step = std::weak_ptr(step)](std::uint32_t next) {
    const auto self = weak_step.lock();
    assert(self != nullptr);
    change_replication(file, next, IncreaseMode::kDirect,
                       [this, file, target, done, self, next](bool ok) {
                         if (!ok || next >= target) {
                           if (done) {
                             done(ok);
                           }
                           return;
                         }
                         sim_.schedule_after(config_.replication_step_poll,
                                             [self, next] { (*self)(next + 1); });
                       });
  };
  (*step)(current + 1);
}

void Cluster::encode_file(FileId file, std::size_t parity_count, DoneCallback done) {
  encode_file(file,
              ec::CodecSpec{ec::CodecKind::kRs, static_cast<std::uint32_t>(parity_count),
                            0, 0},
              std::move(done));
}

void Cluster::encode_file(FileId file, const ec::CodecSpec& spec, DoneCallback done) {
  const FileInfo* info = namespace_.find(file);
  if (info == nullptr || info->erasure_coded || spec.total_parities() == 0) {
    if (done) {
      sim_.schedule_after(sim::micros(0), [done] { done(false); });
    }
    return;
  }
  const ec::CodecSpec norm = ec::normalize_spec(spec, info->blocks.size());
  const std::size_t parity_count = norm.total_parities();
  const auto codec_kind = static_cast<std::uint8_t>(norm.kind);
  const std::uint8_t codec_locals =
      norm.kind == ec::CodecKind::kAzureLrc
          ? static_cast<std::uint8_t>(std::min<std::uint32_t>(norm.local_groups, 255))
          : 0;
  emit_audit("encode", info->id, info->path, NodeId{0}, std::nullopt, std::nullopt);

  // Pick the encoder: the least-used active node.
  std::optional<NodeId> encoder;
  std::uint64_t best_used = std::numeric_limits<std::uint64_t>::max();
  for (const DataNode& n : nodes_) {
    if (n.state == NodeState::kActive && n.used_bytes < best_used) {
      best_used = n.used_bytes;
      encoder = n.id;
    }
  }
  if (!encoder) {
    if (done) {
      sim_.schedule_after(sim::micros(0), [done] { done(false); });
    }
    return;
  }
  const NodeId enc = *encoder;
  const FileId fid = file;
  const std::uint64_t parity_size = info->block_size;
  const std::vector<BlockId> data_blocks = info->blocks;

  std::shared_ptr<obs::TraceEvent> ev;
  if (obs_ != nullptr) {
    ev = std::make_shared<obs::TraceEvent>();
    ev->kind = obs::ActionKind::kClusterEncode;
    ev->path = info->path;
    ev->rep_before = info->replication;
    ev->node = static_cast<std::int64_t>(enc.value());
    ev->codec = ec::to_string(norm.kind);
  }

  queue_background([this, fid, enc, parity_size, parity_count, data_blocks, ev,
                    codec_kind, codec_locals, done](std::function<void()> finished) {
    // Stage 1: stream the k data blocks to the encoder.
    auto stage1 = std::make_shared<std::size_t>(data_blocks.size());
    auto enc_failed = std::make_shared<bool>(false);
    auto after_reads = [this, fid, enc, parity_size, parity_count, ev, done,
                        codec_kind, codec_locals, finished, enc_failed]() {
      // Stage 2: write the m parity blocks to policy-chosen targets.
      const FileInfo* info = namespace_.find(fid);
      if (info == nullptr || *enc_failed || !is_serving(enc)) {
        // A source or the encoder died while streaming: the encode fails
        // (the control loop's job retry re-runs it against live nodes).
        if (ev != nullptr && obs_ != nullptr) {
          ev->at = sim_.now();
          ev->outcome = "aborted";
          obs_->trace().record(std::move(*ev));
        }
        finished();
        if (done) {
          done(false);
        }
        return;
      }
      std::vector<BlockId> parities;
      for (std::size_t i = 0; i < parity_count; ++i) {
        parities.push_back(namespace_.add_parity_block(fid, parity_size));
      }
      auto stage2 = std::make_shared<std::size_t>(parities.size());
      auto all_ok = std::make_shared<bool>(true);
      auto finish_encode = [this, fid, ev, done, codec_kind, codec_locals, finished,
                            all_ok] {
        // Stage 3: keep one replica per data block, drop the rest.
        const FileInfo* info = namespace_.find(fid);
        if (info != nullptr && *all_ok) {
          namespace_.set_erasure_coded(fid, true);
          namespace_.set_codec(fid, codec_kind, codec_locals);
          namespace_.set_replication(fid, 1);
          for (const BlockId b : info->blocks) {
            while (locations(b).size() > 1) {
              const auto victim = placement_->choose_replica_to_remove(*this, b, rng_);
              if (!victim) {
                break;
              }
              remove_replica(b, *victim);
            }
          }
        }
        if (ev != nullptr && obs_ != nullptr) {
          ev->at = sim_.now();
          ev->rep_after = 1;
          ev->outcome = *all_ok ? "ok" : "failed";
          std::sort(ev->targets.begin(), ev->targets.end());
          ev->targets.erase(std::unique(ev->targets.begin(), ev->targets.end()),
                            ev->targets.end());
          obs_->registry().add(obs_ids_.encodes);
          obs_->trace().record(std::move(*ev));
        }
        finished();
        if (done) {
          done(*all_ok);
        }
      };
      for (const BlockId p : parities) {
        const std::vector<NodeId> targets =
            placement_->choose_targets(*this, p, 1, enc, rng_);
        if (targets.empty()) {
          *all_ok = false;
          if (--*stage2 == 0) {
            finish_encode();
          }
          continue;
        }
        // Register the parity location up front so the next parity's
        // placement sees it (otherwise every parity would pick the same
        // "emptiest" node while the writes are still in flight).
        const NodeId t = targets.front();
        add_replica(p, t);
        if (ev != nullptr) {
          ev->bytes_moved += parity_size;
          ev->targets.push_back(static_cast<std::int64_t>(t.value()));
        }
        net::NetworkModel::FlowOptions opts;
        opts.src_disk = true;
        opts.dst_disk = true;
        opts.max_rate = config_.background_bandwidth_cap;
        // A dead parity target (or encoder) fails the encode; the
        // provisional replica registration is rolled back by fail_node (if
        // the target died) or here (if the encoder did).
        opts.on_abort = [this, p, t, all_ok, stage2,
                         finish_encode](net::FlowId, std::uint64_t partial) {
          record_flow_abort(p, static_cast<std::int64_t>(t.value()), partial,
                            "encode_failed");
          if (node_has_block(t, p)) {
            remove_replica(p, t);
          }
          *all_ok = false;
          if (--*stage2 == 0) {
            finish_encode();
          }
        };
        network_.start_flow(enc.value(), t.value(), parity_size, opts,
                            [stage2, finish_encode](net::FlowId) {
                              if (--*stage2 == 0) {
                                finish_encode();
                              }
                            });
      }
    };
    for (const BlockId b : data_blocks) {
      const BlockInfo* binfo = namespace_.find_block(b);
      std::optional<NodeId> src;
      for (const NodeId n : locations(b)) {
        if (is_serving(n)) {
          src = n;
          break;
        }
      }
      if (!src || binfo == nullptr) {
        if (--*stage1 == 0) {
          after_reads();
        }
        continue;
      }
      if (ev != nullptr) {
        ev->bytes_moved += binfo->size;
      }
      net::NetworkModel::FlowOptions opts;
      opts.src_disk = true;
      opts.dst_disk = src != enc;
      opts.max_rate = config_.background_bandwidth_cap;
      opts.on_abort = [this, b, enc, stage1, after_reads,
                       enc_failed](net::FlowId, std::uint64_t partial) {
        record_flow_abort(b, static_cast<std::int64_t>(enc.value()), partial,
                          "encode_failed");
        *enc_failed = true;
        if (--*stage1 == 0) {
          after_reads();
        }
      };
      network_.start_flow(src->value(), enc.value(), binfo->size, opts,
                          [stage1, after_reads](net::FlowId) {
                            if (--*stage1 == 0) {
                              after_reads();
                            }
                          });
    }
  });
}

void Cluster::decode_file(FileId file, std::uint32_t replication, DoneCallback done) {
  const FileInfo* info = namespace_.find(file);
  if (info == nullptr || !info->erasure_coded) {
    if (done) {
      sim_.schedule_after(sim::micros(0), [done] { done(false); });
    }
    return;
  }
  emit_audit("decode", info->id, info->path, NodeId{0}, std::nullopt, std::nullopt);
  const FileId fid = file;
  // The replica restore itself is recorded by change_replication as a
  // set_replication event (with bytes and targets); this event marks the
  // decode completing and the parities being dropped.
  change_replication(file, replication, IncreaseMode::kDirect,
                     [this, fid, replication, done](bool ok) {
                       if (ok) {
                         const std::vector<BlockId> parities =
                             namespace_.clear_parity_blocks(fid);
                         for (const BlockId p : parities) {
                           for (const NodeId n : locations(p)) {
                             remove_replica(p, n);
                           }
                         }
                         namespace_.set_erasure_coded(fid, false);
                         namespace_.set_codec(fid, 0, 0);
                       }
                       if (obs_ != nullptr) {
                         obs::TraceEvent ev;
                         ev.kind = obs::ActionKind::kClusterDecode;
                         ev.at = sim_.now();
                         const FileInfo* info = namespace_.find(fid);
                         if (info != nullptr) {
                           ev.path = info->path;
                         }
                         ev.rep_before = 1;
                         ev.rep_after = replication;
                         ev.outcome = ok ? "ok" : "failed";
                         obs_->registry().add(obs_ids_.decodes);
                         obs_->trace().record(std::move(ev));
                       }
                       if (done) {
                         done(ok);
                       }
                     });
}

void Cluster::move_replica(BlockId block, NodeId source, NodeId target, DoneCallback done) {
  if (!node_has_block(source, block) || node_has_block(target, block) ||
      !is_serving(source) || !is_serving(target)) {
    if (done) {
      sim_.schedule_after(sim::micros(0), [done] { done(false); });
    }
    return;
  }
  copy_block(block, source, target, [this, block, source, done](bool ok) {
    if (ok) {
      remove_replica(block, source);
    }
    if (done) {
      done(ok);
    }
  });
}

// ----- stats ----------------------------------------------------------------------

std::uint64_t Cluster::used_bytes_total() const {
  std::uint64_t total = 0;
  for (const DataNode& n : nodes_) {
    total += n.used_bytes;
  }
  return total;
}

std::uint64_t Cluster::capacity_bytes_total() const {
  std::uint64_t total = 0;
  for (const DataNode& n : nodes_) {
    if (n.state != NodeState::kDead) {
      total += n.config.capacity_bytes;
    }
  }
  return total;
}

double Cluster::energy_joules_total() {
  double total = 0.0;
  for (DataNode& n : nodes_) {
    update_energy(n);
    total += n.energy_joules;
  }
  return total;
}

// ----- audit ----------------------------------------------------------------------

std::string Cluster::node_ip(NodeId id) const {
  std::string out;
  format_node_ip(id, out);
  return out;
}

void Cluster::format_node_ip(NodeId id, std::string& out) const {
  const DataNode& n = nodes_[id.value()];
  char digits[24];
  out.clear();
  out += "/10.0.";
  auto r = std::to_chars(digits, digits + sizeof(digits), n.rack.value());
  out.append(digits, r.ptr);
  out += '.';
  r = std::to_chars(digits, digits + sizeof(digits), id.value());
  out.append(digits, r.ptr);
}

void Cluster::set_audit_batch_sink(BatchAuditSink sink, std::size_t flush_events) {
  flush_audit();
  batch_audit_sink_ = std::move(sink);
  audit_flush_events_ = std::max<std::size_t>(1, flush_events);
}

void Cluster::flush_audit() {
  if (audit_buf_used_ == 0) {
    return;
  }
  const std::size_t n = audit_buf_used_;
  audit_buf_used_ = 0;
  if (batch_audit_sink_) {
    batch_audit_sink_(audit_buf_.data(), n);
  }
}

void Cluster::emit_audit(const std::string& cmd, FileId file, std::string_view src,
                         NodeId client, std::optional<BlockId> block,
                         std::optional<NodeId> datanode, bool allowed) {
  if (obs_ != nullptr) {
    obs_->registry().add(obs_ids_.audit_events);
  }
  if (batch_audit_sink_) {
    // Fill a buffered event in place — its strings keep their capacity from
    // previous flushes, so the steady state allocates nothing per record.
    if (audit_buf_used_ == audit_buf_.size()) {
      audit_buf_.emplace_back();
    }
    audit::AuditEvent& event = audit_buf_[audit_buf_used_++];
    event.time = sim_.now();
    event.allowed = allowed;
    format_node_ip(client, event.ip);
    event.cmd.assign(cmd);
    event.src.assign(src);
    event.dst.clear();
    event.fid = static_cast<std::int64_t>(file.value());
    event.block.reset();
    event.datanode.reset();
    if (block) {
      event.block = static_cast<std::int64_t>(block->value());
    }
    if (datanode) {
      event.datanode = static_cast<std::int64_t>(datanode->value());
    }
    if (audit_buf_used_ >= audit_flush_events_) {
      flush_audit();
    }
    return;
  }
  if (!audit_sink_) {
    return;
  }
  audit::AuditEvent event;
  event.time = sim_.now();
  event.allowed = allowed;
  event.ip = node_ip(client);
  event.cmd = cmd;
  event.src = src;
  event.fid = static_cast<std::int64_t>(file.value());
  if (block) {
    event.block = static_cast<std::int64_t>(block->value());
  }
  if (datanode) {
    event.datanode = static_cast<std::int64_t>(datanode->value());
  }
  audit_sink_(event);
}

void Cluster::save_state(snapshot::Writer& w) {
  // Deliver buffered audit records through the installed sink first — the
  // reference (uninterrupted) run performs the same flush at its snapshot
  // barrier, so both runs feed the CEP engine identical prefixes.
  flush_audit();
  assert(network_.active_flows() == 0 && background_idle());

  // Fingerprint of the construction-time shape the restoring driver must
  // reproduce; checked before any state is read.
  w.u64(config_.seed);
  w.u64(config_.block_size);
  w.u64(nodes_.size());

  const sim::Rng::State rng_state = rng_.state();
  for (const std::uint64_t word : rng_state) w.u64(word);

  network_.save_state(w);
  namespace_.save_state(w);

  for (const DataNode& node : nodes_) {
    assert(node.state != NodeState::kCommissioning &&
           node.state != NodeState::kDecommissioning);
    w.u32(node.id.value());
    w.u32(node.rack.value());
    w.u8(static_cast<std::uint8_t>(node.state));
    w.u64(node.used_bytes);
    w.u32(node.active_sessions);
    w.u32(node.background_reads);
    // Unordered sets travel sorted; every live drain of these sets sorts
    // before iterating, so insertion order is unobservable anyway.
    std::vector<BlockId> blocks(node.blocks.begin(), node.blocks.end());
    std::sort(blocks.begin(), blocks.end());
    w.u64(blocks.size());
    for (const BlockId b : blocks) w.u64(b.value());
    std::vector<BlockId> stale(node.stale_blocks.begin(), node.stale_blocks.end());
    std::sort(stale.begin(), stale.end());
    w.u64(stale.size());
    for (const BlockId b : stale) w.u64(b.value());
    w.f64(node.energy_joules);
    w.i64(node.last_energy_update.micros());
  }

  w.u64(block_locations_.size());
  for (const auto& locs : block_locations_) {
    w.u32(static_cast<std::uint32_t>(locs.size()));
    for (const NodeId n : locs) w.u32(n.value());
  }

  w.u64(corrupt_replicas_.size());
  for (const auto& [block, node] : corrupt_replicas_) {
    w.u64(block.value());
    w.u32(node.value());
  }

  w.u64(reads_rejected_);
  w.u64(reads_completed_);
  w.u64(blocks_lost_);
  w.u64(rereplications_completed_);
  w.u64(corruptions_detected_);
  w.u64(recovery_retries_);
  w.u64(recoveries_abandoned_);
  w.u64(nodes_revived_);
}

void Cluster::load_state(snapshot::Reader& r) {
  // The snapshot was taken right after a flush, so anything this world
  // buffered before the restore (e.g. population audit records) belongs to
  // the discarded pre-restore history, not the restored one.
  audit_buf_.clear();
  if (!r.require(r.u64() == config_.seed, "cluster seed")) return;
  if (!r.require(r.u64() == config_.block_size, "cluster block size")) return;
  if (!r.require(r.u64() == nodes_.size(), "cluster node count")) return;

  sim::Rng::State rng_state;
  for (std::uint64_t& word : rng_state) word = r.u64();

  network_.load_state(r);
  namespace_.load_state(r);
  if (!r.ok()) return;

  for (DataNode& node : nodes_) {
    if (!r.require(r.u32() == node.id.value(), "node id")) return;
    if (!r.require(r.u32() == node.rack.value(), "node rack")) return;
    node.state = static_cast<NodeState>(r.u8());
    node.used_bytes = r.u64();
    node.active_sessions = r.u32();
    node.background_reads = r.u32();
    const std::uint64_t nblocks = r.u64();
    if (!r.require(nblocks <= r.remaining() / 8 + 1, "node block count")) return;
    node.blocks.clear();
    for (std::uint64_t i = 0; i < nblocks && r.ok(); ++i) {
      node.blocks.insert(BlockId{r.u64()});
    }
    const std::uint64_t nstale = r.u64();
    if (!r.require(nstale <= r.remaining() / 8 + 1, "stale block count")) return;
    node.stale_blocks.clear();
    for (std::uint64_t i = 0; i < nstale && r.ok(); ++i) {
      node.stale_blocks.insert(BlockId{r.u64()});
    }
    node.energy_joules = r.f64();
    node.last_energy_update = sim::SimTime{r.i64()};
  }

  const std::uint64_t nloc = r.u64();
  if (!r.require(nloc <= r.remaining() / 4 + 1, "block map size")) return;
  block_locations_.clear();
  block_locations_.resize(nloc);
  for (std::uint64_t i = 0; i < nloc && r.ok(); ++i) {
    const std::uint32_t count = r.u32();
    if (!r.require(count <= r.remaining() / 4 + 1, "replica count")) return;
    for (std::uint32_t j = 0; j < count && r.ok(); ++j) {
      block_locations_[i].push_back(NodeId{r.u32()});
    }
  }

  const std::uint64_t ncorrupt = r.u64();
  if (!r.require(ncorrupt <= r.remaining() / 12 + 1, "corrupt replica count")) return;
  corrupt_replicas_.clear();
  for (std::uint64_t i = 0; i < ncorrupt && r.ok(); ++i) {
    const BlockId block{r.u64()};
    const NodeId node{r.u32()};
    corrupt_replicas_.emplace(block, node);
  }

  reads_rejected_ = r.u64();
  reads_completed_ = r.u64();
  blocks_lost_ = r.u64();
  rereplications_completed_ = r.u64();
  corruptions_detected_ = r.u64();
  recovery_retries_ = r.u64();
  recoveries_abandoned_ = r.u64();
  nodes_revived_ = r.u64();
  if (!r.ok()) return;
  rng_.set_state(rng_state);
  codec_cache_.clear();
}

}  // namespace erms::hdfs
