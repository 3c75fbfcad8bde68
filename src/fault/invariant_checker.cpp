#include "fault/invariant_checker.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace erms::fault {

namespace {

/// Violation lines are collected then sorted so the report text is stable
/// regardless of the order checks run in.
void add(std::vector<std::string>& violations, std::string line) {
  violations.push_back(std::move(line));
}

}  // namespace

InvariantReport InvariantChecker::check(bool converged) const {
  InvariantReport report;
  std::vector<std::string>& v = report.violations;

  // ---- safety: nothing lost, nothing abandoned ---------------------------
  if (cluster_.blocks_lost() != 0) {
    add(v, "blocks_lost=" + std::to_string(cluster_.blocks_lost()) + " (expected 0)");
  }
  if (cluster_.recoveries_abandoned() != 0) {
    add(v, "recoveries_abandoned=" + std::to_string(cluster_.recoveries_abandoned()) +
               " (expected 0)");
  }

  // ---- per-file availability + convergence -------------------------------
  std::size_t files = 0;
  std::size_t available = 0;
  std::size_t converged_files = 0;
  std::vector<hdfs::FileId> ids = cluster_.metadata().file_ids();
  std::sort(ids.begin(), ids.end());
  for (const hdfs::FileId f : ids) {
    const hdfs::FileInfo* info = cluster_.metadata().find(f);
    if (info == nullptr) {
      continue;
    }
    ++files;
    if (cluster_.file_available(f)) {
      ++available;
    } else {
      add(v, "file_unavailable path=" + std::string(info->path));
    }
    bool file_converged = true;
    if (!info->erasure_coded) {
      for (const hdfs::BlockId b : info->blocks) {
        const std::size_t live = cluster_.locations(b).size();
        if (live < info->replication) {
          file_converged = false;
          if (converged) {
            add(v, "under_replicated path=" + std::string(info->path) + " block=" +
                       std::to_string(b.value()) + " live=" + std::to_string(live) +
                       " target=" + std::to_string(info->replication));
          }
        }
      }
    } else {
      // EC: every data block and every surviving parity keeps >= 1 copy.
      for (const hdfs::BlockId b : info->blocks) {
        if (cluster_.locations(b).empty() && !cluster_.file_available(f)) {
          file_converged = false;
        }
      }
      std::size_t parities_live = 0;
      for (const hdfs::BlockId p : info->parity_blocks) {
        parities_live += cluster_.locations(p).empty() ? 0 : 1;
      }
      if (converged && !info->parity_blocks.empty() && parities_live == 0) {
        file_converged = false;
        add(v, "no_parity_survives path=" + std::string(info->path));
      }
    }
    converged_files += file_converged ? 1 : 0;
  }

  // ---- bookkeeping consistency -------------------------------------------
  // The location map and the per-node block sets must agree, and no
  // non-serving node may be listed as a location.
  std::map<std::uint64_t, std::size_t> node_holdings;
  for (const hdfs::NodeId n : cluster_.nodes()) {
    node_holdings[n.value()] = cluster_.node(n).blocks.size();
  }
  std::map<std::uint64_t, std::size_t> map_holdings;
  for (const hdfs::FileId f : ids) {
    const hdfs::FileInfo* info = cluster_.metadata().find(f);
    if (info == nullptr) {
      continue;
    }
    std::vector<hdfs::BlockId> all = info->blocks;
    all.insert(all.end(), info->parity_blocks.begin(), info->parity_blocks.end());
    for (const hdfs::BlockId b : all) {
      for (const hdfs::NodeId n : cluster_.locations(b)) {
        ++map_holdings[n.value()];
        if (!cluster_.is_serving(n) &&
            cluster_.node(n).state != hdfs::NodeState::kDecommissioning) {
          add(v, "dead_location node=" + std::to_string(n.value()) + " block=" +
                     std::to_string(b.value()));
        }
        // The node's own set, not node_has_block(): that reads the location
        // map, so it would compare the map with itself.
        if (!cluster_.node(n).blocks.contains(b)) {
          add(v, "map_mismatch node=" + std::to_string(n.value()) + " block=" +
                     std::to_string(b.value()) + " (location without node replica)");
        }
      }
    }
  }
  for (const auto& [n, held] : node_holdings) {
    const std::size_t mapped = map_holdings.contains(n) ? map_holdings.at(n) : 0;
    if (held != mapped) {
      add(v, "holdings_mismatch node=" + std::to_string(n) + " node_set=" +
                 std::to_string(held) + " location_map=" + std::to_string(mapped));
    }
  }

  // ---- trace accounting ---------------------------------------------------
  std::uint64_t trace_rereplications = 0;
  std::uint64_t trace_revivals = 0;
  std::uint64_t trace_faults = 0;
  std::uint64_t trace_aborts = 0;
  std::uint64_t trace_retries = 0;
  if (trace_ != nullptr) {
    for (const obs::TraceEvent& ev : trace_->snapshot()) {
      switch (ev.kind) {
        case obs::ActionKind::kRereplication:
          ++trace_rereplications;
          break;
        case obs::ActionKind::kNodeRecovered:
          ++trace_revivals;
          break;
        case obs::ActionKind::kFaultInjected:
          ++trace_faults;
          break;
        case obs::ActionKind::kFlowAborted:
          ++trace_aborts;
          break;
        case obs::ActionKind::kJobRetry:
          ++trace_retries;
          break;
        default:
          break;
      }
    }
    if (trace_->dropped() == 0) {
      if (trace_rereplications != cluster_.rereplications_completed()) {
        add(v, "trace_rereplication_mismatch trace=" +
                   std::to_string(trace_rereplications) + " cluster=" +
                   std::to_string(cluster_.rereplications_completed()));
      }
      if (trace_revivals != cluster_.nodes_revived()) {
        add(v, "trace_revival_mismatch trace=" + std::to_string(trace_revivals) +
                   " cluster=" + std::to_string(cluster_.nodes_revived()));
      }
    }
  }

  // ---- bounded retries ----------------------------------------------------
  if (scheduler_ != nullptr) {
    std::map<condor::JobId, std::uint64_t> executes;
    for (const condor::JobLogRecord& rec : scheduler_->log()) {
      if (rec.kind == condor::JobLogRecord::Kind::kExecute) {
        ++executes[rec.job];
      }
    }
    for (const auto& [id, count] : executes) {
      const condor::Job* job = scheduler_->find(id);
      if (job != nullptr && count != job->attempts) {
        add(v, "attempt_mismatch job=" + std::to_string(id.value()) + " log=" +
                   std::to_string(count) + " live=" + std::to_string(job->attempts));
      }
    }
  }

  std::sort(v.begin(), v.end());
  report.ok = v.empty();

  std::ostringstream os;
  os << "invariant_report converged=" << (converged ? 1 : 0) << '\n'
     << "files=" << files << " available=" << available
     << " converged_files=" << converged_files << '\n'
     << "blocks_lost=" << cluster_.blocks_lost()
     << " rereplications=" << cluster_.rereplications_completed()
     << " recovery_retries=" << cluster_.recovery_retries()
     << " recoveries_abandoned=" << cluster_.recoveries_abandoned()
     << " nodes_revived=" << cluster_.nodes_revived() << '\n'
     << "net_flows_aborted=" << cluster_.network().flows_aborted()
     << " net_bytes_aborted=" << cluster_.network().bytes_aborted() << '\n';
  if (trace_ != nullptr) {
    os << "trace faults=" << trace_faults << " aborts=" << trace_aborts
       << " retries=" << trace_retries << " rereplications=" << trace_rereplications
       << " revivals=" << trace_revivals << " dropped=" << trace_->dropped() << '\n';
  }
  if (scheduler_ != nullptr) {
    os << "condor retries=" << scheduler_->retries()
       << " timeouts=" << scheduler_->timeouts() << '\n';
  }
  os << "violations=" << v.size() << '\n';
  for (const std::string& line : v) {
    os << "  " << line << '\n';
  }
  os << "ok=" << (report.ok ? 1 : 0) << '\n';
  report.text = os.str();
  return report;
}

}  // namespace erms::fault
