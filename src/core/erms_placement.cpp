#include "core/erms_placement.h"

#include <algorithm>
#include <limits>

#include "hdfs/cluster.h"

namespace erms::core {

using hdfs::BlockId;
using hdfs::Cluster;
using hdfs::NodeId;

ErmsPlacementPolicy::ErmsPlacementPolicy(std::set<NodeId> standby_pool,
                                         std::uint32_t default_replication)
    : standby_pool_(std::move(standby_pool)), default_replication_(default_replication) {}

bool ErmsPlacementPolicy::eligible(const Cluster& cluster, BlockId block, NodeId node,
                                   const std::vector<NodeId>& chosen) const {
  const hdfs::DataNode& dn = cluster.node(node);
  if (dn.state != hdfs::NodeState::kActive) {
    return false;
  }
  if (cluster.node_has_block(node, block)) {
    return false;
  }
  const hdfs::BlockInfo* info = cluster.metadata().find_block(block);
  const std::uint64_t need = info != nullptr ? info->size : 0;
  if (dn.used_bytes + need > dn.config.capacity_bytes) {
    return false;
  }
  return std::find(chosen.begin(), chosen.end(), node) == chosen.end();
}

std::vector<NodeId> ErmsPlacementPolicy::choose_targets(const Cluster& cluster, BlockId block,
                                                        std::size_t count,
                                                        std::optional<NodeId> writer,
                                                        sim::Rng& rng) const {
  const hdfs::BlockInfo* info = cluster.metadata().find_block(block);
  if (info == nullptr || count == 0) {
    return {};
  }

  // --- Coding blocks: the active (non-pool) node with the fewest blocks of
  // this file (Algorithm 1 lines 7-13).
  if (info->is_parity) {
    std::vector<NodeId> chosen;
    while (chosen.size() < count) {
      // All active nodes tied for the fewest blocks of this file; pick one
      // at random so parities of different files do not pile up on the
      // lowest-numbered node.
      std::vector<NodeId> best;
      std::size_t best_blocks = std::numeric_limits<std::size_t>::max();
      for (const NodeId n : cluster.nodes()) {
        if (in_standby_pool(n) || !eligible(cluster, block, n, chosen)) {
          continue;
        }
        const std::size_t file_blocks = cluster.file_blocks_on_node(info->file, n);
        if (file_blocks < best_blocks) {
          best_blocks = file_blocks;
          best.clear();
        }
        if (file_blocks == best_blocks) {
          best.push_back(n);
        }
      }
      if (best.empty()) {
        break;
      }
      chosen.push_back(best[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(best.size()) - 1))]);
    }
    return chosen;
  }

  // --- Data blocks (lines 14-37). The first r_D replicas follow the stock
  // rack-aware scheme restricted to non-pool nodes (lines 15-21); replicas
  // beyond r_D are hot extras and go standby-first (lines 22-35).
  std::vector<NodeId> chosen;
  const std::size_t current = cluster.locations(block).size();
  const std::size_t base_needed =
      current < default_replication_
          ? std::min<std::size_t>(count, default_replication_ - current)
          : 0;

  // The filter runs first: it is cheaper than eligible(), and both are pure,
  // so the candidates (and the RNG draw) do not depend on the order.
  auto pick = [&](auto&& filter) -> bool {
    std::vector<NodeId> candidates;
    for (const NodeId n : cluster.nodes()) {
      if (filter(n) && eligible(cluster, block, n, chosen)) {
        candidates.push_back(n);
      }
    }
    if (candidates.empty()) {
      return false;
    }
    chosen.push_back(candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))]);
    return true;
  };
  auto not_pool = [&](NodeId n) { return !in_standby_pool(n); };

  // Base replicas: writer-local, then a second rack, then that rack again,
  // then spread — all on non-pool nodes.
  if (base_needed > 0) {
    const bool fresh_block = current == 0;
    if (fresh_block && chosen.empty() && writer && !in_standby_pool(*writer) &&
        eligible(cluster, block, *writer, chosen)) {
      chosen.push_back(*writer);
    }
    while (chosen.size() < base_needed) {
      std::set<std::uint32_t> used_racks;
      for (const NodeId n : cluster.locations(block)) {
        used_racks.insert(cluster.rack_of(n).value());
      }
      for (const NodeId n : chosen) {
        used_racks.insert(cluster.rack_of(n).value());
      }
      // Prefer a rack without a replica yet; replica 3 prefers doubling up
      // in the remote rack (the HDFS two-rack layout falls out of this when
      // starting from a single-rack replica 1).
      if (pick([&](NodeId n) {
            return not_pool(n) && !used_racks.contains(cluster.rack_of(n).value()) &&
                   used_racks.size() < 2;
          })) {
        continue;
      }
      if (pick([&](NodeId n) {
            return not_pool(n) && used_racks.contains(cluster.rack_of(n).value());
          })) {
        continue;
      }
      if (pick(not_pool)) {
        continue;
      }
      break;
    }
  }

  // --- Extra replicas of hot data: standby-pool nodes first (lines 22-27),
  // active nodes as the fallback (lines 29-35). Prefer pool nodes in racks
  // that already hold a replica.
  std::set<std::uint32_t> replica_racks;
  for (const NodeId n : cluster.locations(block)) {
    replica_racks.insert(cluster.rack_of(n).value());
  }
  for (const NodeId n : chosen) {
    replica_racks.insert(cluster.rack_of(n).value());
  }

  while (chosen.size() < count) {
    // 1. standby node in a rack that already has a replica;
    // 2. any standby node;
    // 3. any active node.
    if (pick([&](NodeId n) {
          return in_standby_pool(n) && replica_racks.contains(cluster.rack_of(n).value());
        })) {
      continue;
    }
    if (pick([&](NodeId n) { return in_standby_pool(n); })) {
      continue;
    }
    if (pick(not_pool)) {
      continue;
    }
    break;
  }
  return chosen;
}

std::optional<NodeId> ErmsPlacementPolicy::choose_replica_to_remove(const Cluster& cluster,
                                                                    BlockId block,
                                                                    sim::Rng& rng) const {
  // Deletion prefers standby-pool nodes (Algorithm 1 lines 39-51), so
  // dropping extra replicas leaves active nodes untouched.
  const std::vector<NodeId> locs = cluster.locations(block);
  for (const NodeId n : locs) {
    if (in_standby_pool(n)) {
      return n;
    }
  }
  return default_policy_.choose_replica_to_remove(cluster, block, rng);
}

}  // namespace erms::core
