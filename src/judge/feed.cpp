#include "judge/feed.h"

#include <algorithm>
#include <limits>
#include <string>

#include "cep/epl_parser.h"
#include "snapshot/codec.h"

namespace erms::judge {

namespace {

std::string window_clause(sim::SimDuration window) {
  return " WINDOW TIME " + std::to_string(window.seconds()) + "s";
}

/// The fid column of a group key as a FileId, or FileId{0} (never a valid
/// id) when it holds no int in FileId's range.
hdfs::FileId fid_at(const cep::GroupKeyView& key) {
  if (!key.is_int(0)) {
    return hdfs::FileId{0};
  }
  const std::int64_t v = key.int_at(0);
  if (v <= 0 || v > std::numeric_limits<hdfs::FileId::rep_type>::max()) {
    return hdfs::FileId{0};
  }
  return hdfs::FileId{static_cast<hdfs::FileId::rep_type>(v)};
}

}  // namespace

AccessStatsFeed::AccessStatsFeed(cep::EngineBase& engine, sim::SimDuration window)
    : engine_(engine),
      // The judge's standing queries, written in the engine's EPL. All
      // grouping is by the interned fid — one int key word — instead of the
      // path string.
      file_query_(engine.register_query(cep::parse_epl(
          "SELECT count(*) AS n FROM audit WHERE cmd == \"open\" GROUP BY fid" +
          window_clause(window)))),
      block_query_(engine.register_query(cep::parse_epl(
          "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY fid, blk" +
          window_clause(window)))),
      node_query_(engine.register_query(cep::parse_epl(
          "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY dn" +
          window_clause(window)))),
      file_node_query_(engine.register_query(cep::parse_epl(
          "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY fid, dn" +
          window_clause(window)))),
      slots_(audit::AuditSlots::resolve(engine.attr_symbols(), engine.stream_symbols())) {}

void AccessStatsFeed::on_audit(const audit::AuditEvent& event) {
  ++events_ingested_;
  if (event.fid > 0 && (event.cmd == "open" || event.cmd == "read")) {
    const auto idx = static_cast<std::size_t>(event.fid);
    if (last_access_.size() <= idx) {
      last_access_.resize(idx + 1);
    }
    last_access_[idx] = event.time;
  }
  event.to_slotted(slots_, scratch_);
  engine_.push_slotted(scratch_);
}

void AccessStatsFeed::on_audit_batch(const audit::AuditEvent* events, std::size_t count) {
  // Feed the engine in bounded chunks: the engine runs each chunk through
  // every query, so a chunk that fits in cache is read hot on every pass
  // where an unbounded batch would stream from memory each time. Chunk
  // boundaries are unobservable — push_batch(a+b) ≡ push_batch(a),
  // push_batch(b) — so any caller batch size yields identical state.
  constexpr std::size_t kEngineChunk = 4096;
  for (std::size_t base = 0; base < count; base += kEngineChunk) {
    const std::size_t n = std::min(kEngineChunk, count - base);
    batch_.clear();  // keeps the slotted events' capacity for reuse
    for (std::size_t i = 0; i < n; ++i) {
      const audit::AuditEvent& event = events[base + i];
      ++events_ingested_;
      if (event.fid > 0 && (event.cmd == "open" || event.cmd == "read")) {
        const auto idx = static_cast<std::size_t>(event.fid);
        if (last_access_.size() <= idx) {
          last_access_.resize(idx + 1);
        }
        last_access_[idx] = event.time;
      }
      event.to_slotted(slots_, batch_.emplace_back());
    }
    engine_.push_batch(batch_);
  }
}

void AccessStatsFeed::advance_to(sim::SimTime now) { engine_.advance_to(now); }

std::uint64_t AccessStatsFeed::file_accesses(hdfs::FileId file) const {
  const auto row = engine_.group_row(file_query_, {std::to_string(file.value())});
  if (!row) {
    return 0;
  }
  return static_cast<std::uint64_t>(row->values.get_int("n").value_or(0));
}

void AccessStatsFeed::for_each_file_access(
    const std::function<void(hdfs::FileId, std::uint64_t)>& fn,
    cep::GroupOrder order) const {
  engine_.for_each_group(
      file_query_,
      [&](const cep::GroupKeyView& key, std::uint64_t n) {
        const hdfs::FileId fid = fid_at(key);
        if (fid.value() != 0) {
          fn(fid, n);
        }
      },
      order);
}

void AccessStatsFeed::for_each_block_access(
    const std::function<void(hdfs::FileId, std::int64_t, std::uint64_t)>& fn,
    cep::GroupOrder order) const {
  engine_.for_each_group(
      block_query_,
      [&](const cep::GroupKeyView& key, std::uint64_t n) {
        const hdfs::FileId fid = fid_at(key);
        if (fid.value() != 0 && key.is_int(1)) {
          fn(fid, key.int_at(1), n);
        }
      },
      order);
}

void AccessStatsFeed::for_each_node_access(
    const std::function<void(std::int64_t, std::uint64_t)>& fn) const {
  engine_.for_each_group(
      node_query_,
      [&](const cep::GroupKeyView& key, std::uint64_t n) {
        if (key.is_int(0)) {
          fn(key.int_at(0), n);
        }
      },
      cep::GroupOrder::kSorted);
}

void AccessStatsFeed::for_each_file_node_access(
    const std::function<void(hdfs::FileId, std::int64_t, std::uint64_t)>& fn) const {
  engine_.for_each_group(
      file_node_query_,
      [&](const cep::GroupKeyView& key, std::uint64_t n) {
        const hdfs::FileId fid = fid_at(key);
        if (fid.value() != 0 && key.is_int(1)) {
          fn(fid, key.int_at(1), n);
        }
      },
      cep::GroupOrder::kSorted);
}

void AccessStatsFeed::for_each_file_access_on_node(
    std::int64_t datanode,
    const std::function<void(hdfs::FileId, std::uint64_t)>& fn) const {
  engine_.for_each_group(
      file_node_query_,
      [&](const cep::GroupKeyView& key, std::uint64_t n) {
        if (!key.is_int(1) || key.int_at(1) != datanode) {
          return;
        }
        const hdfs::FileId fid = fid_at(key);
        if (fid.value() != 0) {
          fn(fid, n);
        }
      },
      cep::GroupOrder::kSorted);
}

sim::SimTime AccessStatsFeed::last_access(hdfs::FileId file) const {
  if (file.value() >= last_access_.size()) {
    return sim::SimTime{0};
  }
  return last_access_[file.value()];
}

std::vector<hdfs::FileId> AccessStatsFeed::active_files() const {
  std::vector<hdfs::FileId> out;
  for_each_file_access([&](hdfs::FileId fid, std::uint64_t) { out.push_back(fid); });
  return out;
}

void AccessStatsFeed::save_state(snapshot::Writer& w) const {
  w.u64(last_access_.size());
  for (const sim::SimTime t : last_access_) w.i64(t.micros());
  w.u64(events_ingested_);
}

void AccessStatsFeed::load_state(snapshot::Reader& r) {
  const std::uint64_t n = r.u64();
  if (!r.require(n <= r.remaining() / sizeof(std::int64_t) + 1, "last-access table size")) return;
  last_access_.clear();
  last_access_.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    last_access_.push_back(sim::SimTime{r.i64()});
  }
  events_ingested_ = r.u64();
}

}  // namespace erms::judge
