#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "audit/audit.h"
#include "cep/engine.h"
#include "hdfs/types.h"
#include "judge/thresholds.h"

namespace erms::snapshot {
class Reader;
class Writer;
}

namespace erms::judge {

/// Bridges the audit stream to the Data Judge: converts audit records to CEP
/// events, registers the continuous queries ERMS needs (per-file, per-block
/// and per-datanode access counts over the sliding time window t_w), and
/// exposes the windowed counts. This is the paper's "log parser + CEP
/// engine" pipeline assembled (§III.C).
///
/// Grouping is by the audit records' interned `fid` (dense 32-bit FileId),
/// not the path string, so every group key is ints only (fid, blk, dn), and
/// readers take those ints straight from the engine's typed group keys via
/// callbacks instead of materialising a fresh map per judge sweep.
class AccessStatsFeed {
 public:
  /// Works against any EngineBase — the scalar Engine or a ShardedEngine
  /// (the manager picks based on ErmsConfig::judge_shards).
  AccessStatsFeed(cep::EngineBase& engine, sim::SimDuration window);

  /// Consume one audit record (wire this to Cluster::set_audit_sink).
  /// Records without a `fid` still flow to the engine but carry no
  /// per-file state.
  void on_audit(const audit::AuditEvent& event);

  /// Consume a span of audit records, equivalent to on_audit on each in
  /// order. The span is converted into a reusable cep::EventBatch and handed
  /// to the engine whole — one virtual dispatch per batch, and a sharded
  /// engine splits it straight into per-shard batches (wire this to
  /// Cluster::set_audit_batch_sink).
  void on_audit_batch(const audit::AuditEvent* events, std::size_t count);

  /// Evict expired window entries before reading counts.
  void advance_to(sim::SimTime now);

  /// N_d — file-level accesses (cmd=open) in the window, for one file.
  [[nodiscard]] std::uint64_t file_accesses(hdfs::FileId file) const;

  /// Visit every (file, N_d) with open activity in the window. kSorted
  /// visits in group-key order (identical for scalar and sharded engines);
  /// kUnordered skips the per-visit sort for consumers that scatter into
  /// dense arrays. No per-sweep map is built either way.
  void for_each_file_access(
      const std::function<void(hdfs::FileId, std::uint64_t)>& fn,
      cep::GroupOrder order = cep::GroupOrder::kSorted) const;

  /// Visit every (file, block, N_bi) with read activity in the window.
  void for_each_block_access(
      const std::function<void(hdfs::FileId, std::int64_t, std::uint64_t)>& fn,
      cep::GroupOrder order = cep::GroupOrder::kSorted) const;

  /// Visit every (datanode, Σ N_b) in the window (input to formula 4).
  void for_each_node_access(
      const std::function<void(std::int64_t, std::uint64_t)>& fn) const;

  /// Visit every (file, datanode, reads) group in the window, in group-key
  /// order — one walk covering every datanode, for overload sweeps that
  /// snapshot the whole relation instead of re-walking it per node.
  void for_each_file_node_access(
      const std::function<void(hdfs::FileId, std::int64_t, std::uint64_t)>& fn) const;

  /// Visit every (file, reads served by `datanode`) in the window — used to
  /// find "the data D that contributes the largest access to DN" when
  /// formula (4) flags an overloaded node.
  void for_each_file_access_on_node(
      std::int64_t datanode,
      const std::function<void(hdfs::FileId, std::uint64_t)>& fn) const;

  /// T_a — last access (open or read) per file, across all time.
  [[nodiscard]] sim::SimTime last_access(hdfs::FileId file) const;

  /// Files seen in the current window (open activity), in id-key order.
  [[nodiscard]] std::vector<hdfs::FileId> active_files() const;

  [[nodiscard]] std::uint64_t events_ingested() const { return events_ingested_; }

  /// Snapshot support (src/snapshot/): the dense last-access table and the
  /// ingest counter. Query ids and attribute slots are re-resolved at
  /// construction, not serialised; the engine's window state is saved by
  /// the engine itself.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  cep::EngineBase& engine_;
  cep::QueryId file_query_;
  cep::QueryId block_query_;
  cep::QueryId node_query_;
  cep::QueryId file_node_query_;
  audit::AuditSlots slots_;      // audit attrs resolved once against engine_
  cep::SlottedEvent scratch_;    // reused per on_audit: no steady-state allocs
  cep::EventBatch batch_;        // reused per on_audit_batch: ditto
  std::vector<sim::SimTime> last_access_;  // dense, indexed by FileId
  std::uint64_t events_ingested_{0};
};

}  // namespace erms::judge
