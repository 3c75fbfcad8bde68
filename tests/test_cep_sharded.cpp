// Differential tests for the rebuilt audit ingest pipeline: the compiled
// fast path, the slotted event representation and the ShardedEngine must all
// produce byte-identical snapshots to the scalar ClassAd path. Workloads are
// randomized (fixed seeds) over every aggregate kind, time and length
// windows, group churn and eviction. Numeric attribute values are integers
// so sums are exact in double arithmetic — cross-shard merge order must not
// be able to change a correct result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "cep/engine.h"
#include "cep/epl_parser.h"
#include "cep/sharded_engine.h"

namespace erms::cep {
namespace {

/// Render snapshot rows to one comparable string (ClassAd::unparse is
/// deterministic: attributes print lower-cased in sorted order).
std::string render(const std::vector<ResultRow>& rows) {
  std::string out;
  for (const ResultRow& row : rows) {
    out += row.values.unparse();
    out += '\n';
  }
  return out;
}

/// A randomized audit-like workload with monotone non-decreasing times.
/// `files` controls group churn: small pools revisit groups, large pools
/// keep creating (and evicting) fresh ones.
std::vector<Event> make_workload(std::uint32_t seed, int n, int files) {
  std::mt19937 rng{seed};
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(n));
  std::int64_t t_us = 0;
  for (int i = 0; i < n; ++i) {
    t_us += static_cast<std::int64_t>(rng() % 2000);  // repeats timestamps too
    const char* cmds[] = {"open", "read", "write", "delete"};
    Event e{sim::SimTime{t_us}, rng() % 10 == 0 ? "other" : "audit"};
    e.with_string("cmd", cmds[rng() % 4]);
    e.with_string("src", "/data/f" + std::to_string(rng() % static_cast<std::uint32_t>(files)));
    e.with_int("blk", static_cast<std::int64_t>(rng() % 64));
    e.with_int("dn", static_cast<std::int64_t>(rng() % 12));
    if (rng() % 5 != 0) {  // sometimes absent: exercises null aggregate inputs
      e.with_int("bytes", static_cast<std::int64_t>(rng() % 100000));
    }
    if (rng() % 7 == 0) {
      e.attrs.insert_bool("allowed", rng() % 2 == 0);
    }
    events.push_back(std::move(e));
  }
  return events;
}

/// Queries covering every aggregate kind, WHERE shapes on and off the fast
/// path, multi-attribute group-bys and a global (no group-by) aggregate.
std::vector<std::string> time_window_queries() {
  return {
      "SELECT count(*) AS n FROM audit WHERE cmd == \"open\" GROUP BY src WINDOW TIME 20s",
      "SELECT count(*) AS n, sum(bytes) AS s, avg(bytes) AS a, min(bytes) AS mn, "
      "max(bytes) AS mx FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW TIME 12s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src, blk WINDOW TIME 8s",
      "SELECT count(*) AS n, max(bytes) AS mx FROM audit GROUP BY dn WINDOW TIME 30s",
      "SELECT count(*) AS n, min(bytes) AS mn FROM audit WHERE allowed GROUP BY src "
      "WINDOW TIME 15s",
      "SELECT sum(bytes) AS s, avg(bytes) AS a FROM audit WHERE cmd != \"delete\" "
      "WINDOW TIME 10s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" && dn >= 6 GROUP BY dn "
      "WINDOW TIME 25s",
  };
}

std::vector<QueryId> register_all(EngineBase& engine, const std::vector<std::string>& epl) {
  std::vector<QueryId> ids;
  ids.reserve(epl.size());
  for (const std::string& q : epl) {
    ids.push_back(engine.register_query(parse_epl(q)));
  }
  return ids;
}

/// Push the same events through both engines, comparing every query's
/// snapshot at periodic checkpoints and after a final advance past the
/// longest window.
void run_differential(EngineBase& reference, EngineBase& candidate,
                      const std::vector<Event>& events,
                      const std::vector<std::string>& epl, int checkpoint_every,
                      bool expect_drain = true) {
  const std::vector<QueryId> ref_ids = register_all(reference, epl);
  const std::vector<QueryId> cand_ids = register_all(candidate, epl);
  ASSERT_EQ(ref_ids.size(), cand_ids.size());
  int since_check = 0;
  for (const Event& e : events) {
    reference.push(e);
    candidate.push(e);
    if (++since_check >= checkpoint_every) {
      since_check = 0;
      // Align both engines' notion of "now" before reading (the sharded
      // engine drains and advances its shards on read).
      reference.advance_to(e.time);
      candidate.advance_to(e.time);
      for (std::size_t q = 0; q < ref_ids.size(); ++q) {
        ASSERT_EQ(render(reference.snapshot(ref_ids[q])),
                  render(candidate.snapshot(cand_ids[q])))
            << "query " << q << " diverged at t=" << e.time;
      }
    }
  }
  // Advance far past every window: both must drain to empty the same way.
  const sim::SimTime far{events.back().time + sim::seconds(120.0)};
  reference.advance_to(far);
  candidate.advance_to(far);
  for (std::size_t q = 0; q < ref_ids.size(); ++q) {
    const std::string ref_rows = render(reference.snapshot(ref_ids[q]));
    EXPECT_EQ(ref_rows, render(candidate.snapshot(cand_ids[q]))) << "query " << q;
    if (expect_drain) {  // time windows empty out; length windows keep N
      EXPECT_TRUE(ref_rows.empty()) << "window failed to drain for query " << q;
    }
  }
}

TEST(CepDifferential, CompiledFastPathMatchesClassAdPath) {
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    for (const int files : {4, 300}) {
      Engine fallback;
      fallback.set_use_fast_path(false);
      Engine fast;
      ASSERT_TRUE(fast.use_fast_path());
      run_differential(fallback, fast, make_workload(seed, 4000, files),
                       time_window_queries(), 257);
    }
  }
}

TEST(CepDifferential, ShardedMatchesScalarAcrossShardCounts) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::size_t batch : {32u, 256u}) {
      Engine scalar;
      ShardedEngineOptions opts;
      opts.shards = shards;
      opts.batch_events = batch;
      ShardedEngine sharded(opts);
      run_differential(scalar, sharded,
                       make_workload(40 + static_cast<std::uint32_t>(shards), 4000, 50),
                       time_window_queries(), 401);
    }
  }
}

TEST(CepDifferential, ShardedFallbackWherePathAlsoMatches) {
  Engine scalar;
  ShardedEngineOptions opts;
  opts.shards = 4;
  ShardedEngine sharded(opts);
  sharded.set_use_fast_path(false);
  run_differential(scalar, sharded, make_workload(77, 3000, 30), time_window_queries(), 499);
}

TEST(CepDifferential, LengthWindowsMatchAtOneShard) {
  // LENGTH windows are shard-local by design; equivalence holds at 1 shard.
  const std::vector<std::string> epl = {
      "SELECT count(*) AS n, sum(bytes) AS s, min(bytes) AS mn, max(bytes) AS mx "
      "FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW LENGTH 64",
      "SELECT count(*) AS n FROM audit GROUP BY dn WINDOW LENGTH 7",
  };
  Engine scalar;
  ShardedEngineOptions opts;
  opts.shards = 1;
  opts.batch_events = 64;
  ShardedEngine sharded(opts);
  run_differential(scalar, sharded, make_workload(11, 3000, 20), epl, 311,
                   /*expect_drain=*/false);
}

TEST(CepDifferential, GroupChurnAndEvictionUnderTinyWindow) {
  // 2s window + ~1ms..2s inter-arrival: groups constantly appear, empty out
  // and get re-created, on both sides of the shard boundary.
  const std::vector<std::string> epl = {
      "SELECT count(*) AS n, max(bytes) AS mx FROM audit GROUP BY src WINDOW TIME 2s",
      "SELECT count(*) AS n, min(bytes) AS mn FROM audit GROUP BY src, dn WINDOW TIME 2s",
  };
  for (const std::uint32_t seed : {5u, 6u}) {
    Engine scalar;
    ShardedEngineOptions opts;
    opts.shards = 4;
    opts.batch_events = 16;
    ShardedEngine sharded(opts);
    run_differential(scalar, sharded, make_workload(seed, 5000, 500), epl, 199);
  }
}

/// Brute-force oracle: recompute one query's windowed aggregates straight
/// from the event list and compare against the engine. Guards against the
/// reference engine and the candidates being identically wrong.
TEST(CepOracle, ScalarEngineMatchesBruteForce) {
  const sim::SimDuration window = sim::seconds(12.0);
  Engine engine;
  const QueryId id = engine.register_query(parse_epl(
      "SELECT count(*) AS n, sum(bytes) AS s, min(bytes) AS mn, max(bytes) AS mx "
      "FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW TIME 12s"));
  const std::vector<Event> events = make_workload(21, 3000, 25);
  std::vector<const Event*> matched;  // in arrival order
  int i = 0;
  for (const Event& e : events) {
    engine.push(e);
    if (e.type == "audit" && e.attrs.get_string("cmd") == "read") {
      matched.push_back(&e);
    }
    if (++i % 500 != 0) {
      continue;
    }
    const sim::SimTime cutoff = e.time - window;
    struct Agg {
      std::int64_t n{0};
      std::int64_t sum{0};
      std::int64_t mn{0};
      std::int64_t mx{0};
      bool any_bytes{false};
    };
    std::map<std::string, Agg> expect;
    for (const Event* m : matched) {
      if (m->time <= cutoff) {
        continue;  // evicted
      }
      Agg& a = expect[*m->attrs.get_string("src")];
      ++a.n;
      if (const auto b = m->attrs.get_int("bytes")) {
        a.sum += *b;
        a.mn = a.any_bytes ? std::min(a.mn, *b) : *b;
        a.mx = a.any_bytes ? std::max(a.mx, *b) : *b;
        a.any_bytes = true;
      }
    }
    const std::vector<ResultRow> rows = engine.snapshot(id);
    ASSERT_EQ(rows.size(), expect.size()) << "at t=" << e.time;
    for (const ResultRow& row : rows) {
      const auto src = row.values.get_string("src");
      ASSERT_TRUE(src.has_value());
      const auto it = expect.find(*src);
      ASSERT_NE(it, expect.end()) << "unexpected group " << *src;
      EXPECT_EQ(row.values.get_int("n").value_or(-1), it->second.n) << *src;
      EXPECT_EQ(row.values.get_real("s").value_or(-1),
                static_cast<double>(it->second.sum))
          << *src;
      if (it->second.any_bytes) {
        EXPECT_EQ(row.values.get_real("mn").value_or(-1),
                  static_cast<double>(it->second.mn))
            << *src;
        EXPECT_EQ(row.values.get_real("mx").value_or(-1),
                  static_cast<double>(it->second.mx))
            << *src;
      } else {
        EXPECT_FALSE(row.values.get_real("mn").has_value()) << *src;
        EXPECT_FALSE(row.values.get_real("mx").has_value()) << *src;
      }
    }
  }
}

/// One GROUP BY value of the canonical-key property test: its kind and how
/// the rule that keys used to follow rendered it (absent as "", ints via
/// to_chars, reals via %g, bools as true/false, strings as themselves).
struct KeyValue {
  enum class Kind { kAbsent, kInt, kReal, kBool, kString } kind{Kind::kAbsent};
  std::int64_t i{0};
  double r{0.0};
  bool b{false};
  std::string s;

  [[nodiscard]] std::string rendered() const {
    switch (kind) {
      case Kind::kAbsent:
        return "";
      case Kind::kInt:
        return std::to_string(i);
      case Kind::kReal: {
        char buf[48];
        const int n = std::snprintf(buf, sizeof buf, "%g", r);
        return std::string(buf, static_cast<std::size_t>(n));
      }
      case Kind::kBool:
        return b ? "true" : "false";
      case Kind::kString:
        return s;
    }
    return "";
  }
};

KeyValue random_key_value(std::mt19937& rng) {
  static const std::int64_t kInts[] = {7, -7, 0, 5, std::numeric_limits<std::int64_t>::max(),
                                       std::numeric_limits<std::int64_t>::min()};
  static const double kReals[] = {7.0, 5.0, 0.5, -0.0, 0.0, 1e20, -7.0};
  static const char* const kStrings[] = {
      "7",     "07", "+7", "-0",    "-7",   "7.0", "9223372036854775808",
      "-9223372036854775808", "9223372036854775807", "", "true", "false", "0", "x", "5"};
  KeyValue v;
  switch (rng() % 5) {
    case 0:
      break;  // absent
    case 1:
      v.kind = KeyValue::Kind::kInt;
      v.i = kInts[rng() % std::size(kInts)];
      break;
    case 2:
      v.kind = KeyValue::Kind::kReal;
      v.r = kReals[rng() % std::size(kReals)];
      break;
    case 3:
      v.kind = KeyValue::Kind::kBool;
      v.b = rng() % 2 == 0;
      break;
    default:
      v.kind = KeyValue::Kind::kString;
      v.s = kStrings[rng() % std::size(kStrings)];
      break;
  }
  return v;
}

std::string join_rendered(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    out += (i == 0 ? "" : "\x1f") + parts[i];
  }
  return out;
}

/// Typed group keys keep the identity rendered string keys had: two events
/// share a group iff their GROUP BY values render to the same joined text.
/// The events mix ints, reals, bools, absent values and strings that are or
/// almost are int spellings, over widths 1-3 and time and length windows,
/// pushed in random batch sizes so the pipelined path runs too. At every
/// checkpoint the snapshot rows, group_row lookups and typed visits must
/// equal a brute-force oracle that groups the live window by the joined
/// rendered key; after a full drain no string stays interned.
TEST(CepOracle, TypedKeysGroupLikeRenderedKeys) {
  const char* const kCols[] = {"a", "b", "c"};
  for (std::size_t width = 1; width <= 3; ++width) {
    for (const bool time_window : {true, false}) {
      SCOPED_TRACE("width " + std::to_string(width) + (time_window ? " time" : " length"));
      std::string epl = "SELECT count(*) AS n FROM audit GROUP BY ";
      for (std::size_t c = 0; c < width; ++c) {
        epl += std::string(c == 0 ? "" : ", ") + kCols[c];
      }
      epl += time_window ? " WINDOW TIME 5s" : " WINDOW LENGTH 60";
      Engine engine;
      const QueryId id = engine.register_query(parse_epl(epl));
      const Slot stream = engine.stream_symbols().intern("audit");
      std::vector<Slot> slots;
      for (std::size_t c = 0; c < width; ++c) {
        slots.push_back(engine.attr_symbols().intern(kCols[c]));
      }

      std::mt19937 rng{static_cast<std::uint32_t>(17 * width + (time_window ? 1 : 0))};
      std::deque<std::pair<std::int64_t, std::vector<std::string>>> live;  // oracle window
      EventBatch batch;
      std::int64_t t_us = 0;
      const sim::SimDuration window = sim::seconds(5.0);
      for (int round = 0; round < 60; ++round) {
        batch.clear();
        const std::size_t n = 1 + rng() % 40;
        for (std::size_t k = 0; k < n; ++k) {
          t_us += static_cast<std::int64_t>(rng() % 400000);
          SlottedEvent& e = batch.emplace_back();
          e.reset(sim::SimTime{t_us}, stream);
          std::vector<std::string> rendered;
          for (std::size_t c = 0; c < width; ++c) {
            const KeyValue v = random_key_value(rng);
            rendered.push_back(v.rendered());
            switch (v.kind) {
              case KeyValue::Kind::kAbsent:
                break;
              case KeyValue::Kind::kInt:
                e.set_int(slots[c], v.i);
                break;
              case KeyValue::Kind::kReal:
                e.set_real(slots[c], v.r);
                break;
              case KeyValue::Kind::kBool:
                e.set_bool(slots[c], v.b);
                break;
              case KeyValue::Kind::kString:
                e.set_string(slots[c], v.s);
                break;
            }
          }
          live.emplace_back(t_us, std::move(rendered));
          if (!time_window && live.size() > 60) {
            live.pop_front();
          }
        }
        engine.push_batch(batch);
        if (time_window) {
          engine.advance_to(sim::SimTime{t_us});
          while (!live.empty() && live.front().first <= t_us - window.micros()) {
            live.pop_front();
          }
        }

        std::map<std::string, std::pair<std::vector<std::string>, std::int64_t>> expect;
        for (const auto& entry : live) {
          auto& group = expect[join_rendered(entry.second)];
          group.first = entry.second;
          ++group.second;
        }
        const std::vector<ResultRow> rows = engine.snapshot(id);
        ASSERT_EQ(rows.size(), expect.size()) << "round " << round;
        auto it = expect.begin();
        for (const ResultRow& row : rows) {
          std::vector<std::string> key;
          for (std::size_t c = 0; c < width; ++c) {
            key.push_back(row.values.get_string(kCols[c]).value_or("<missing>"));
          }
          ASSERT_EQ(key, it->second.first) << "round " << round;
          EXPECT_EQ(row.values.get_int("n").value_or(-1), it->second.second);
          ++it;
        }
        for (const auto& [joined, group] : expect) {
          const auto row = engine.group_row(id, group.first);
          ASSERT_TRUE(row.has_value()) << "group_row missed a live group";
          EXPECT_EQ(row->values.get_int("n").value_or(-1), group.second);
        }
        // Near-miss spellings of a live int key find nothing unless the
        // oracle has that exact text as a group too.
        for (const char* probe : {"07", "+7", "-0", "7.0"}) {
          const std::vector<std::string> key(width, probe);
          EXPECT_EQ(engine.group_row(id, key).has_value(),
                    expect.count(join_rendered(key)) > 0)
              << probe;
        }
        // Typed visits in sorted order: an int column is exactly the
        // canonical int spelling of the rendered text.
        auto vit = expect.begin();
        std::size_t visited = 0;
        engine.for_each_group(
            id,
            [&](const GroupKeyView& view, std::uint64_t count) {
              ASSERT_NE(vit, expect.end());
              ASSERT_EQ(view.size(), width);
              for (std::size_t c = 0; c < width; ++c) {
                const std::string& text = vit->second.first[c];
                const auto as_int = canonical_int(text);
                ASSERT_EQ(view.is_int(c), as_int.has_value()) << "'" << text << "'";
                if (as_int) {
                  EXPECT_EQ(view.int_at(c), *as_int);
                }
              }
              EXPECT_EQ(static_cast<std::int64_t>(count), vit->second.second);
              ++vit;
              ++visited;
            },
            GroupOrder::kSorted);
        EXPECT_EQ(visited, expect.size());
      }

      // Drain: time windows by advancing past the window, length windows by
      // removing the query. Either way every interned string is released.
      EXPECT_GT(engine.interned_strings(), 0u) << "the workload should intern strings";
      if (time_window) {
        engine.advance_to(sim::SimTime{t_us} + sim::seconds(60.0));
        EXPECT_TRUE(engine.snapshot(id).empty());
      } else {
        EXPECT_TRUE(engine.remove_query(id));
      }
      EXPECT_EQ(engine.interned_strings(), 0u);
    }
  }
}

TEST(CepOracle, CanonicalIntIsExactlyToCharsRendering) {
  EXPECT_EQ(canonical_int("7"), 7);
  EXPECT_EQ(canonical_int("-7"), -7);
  EXPECT_EQ(canonical_int("0"), 0);
  EXPECT_EQ(canonical_int("-9223372036854775808"), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(canonical_int("9223372036854775807"), std::numeric_limits<std::int64_t>::max());
  for (const char* s : {"", "07", "+7", "-0", "7.0", " 7", "7 ", "9223372036854775808",
                        "-9223372036854775809", "1e3", "true", "0x7", "-"}) {
    EXPECT_FALSE(canonical_int(s).has_value()) << "'" << s << "'";
  }
}

TEST(CepSharded, SlottedAuditPathMatchesClassAdEvents) {
  // The feed's real ingest shape: AuditEvent::to_slotted into a reused
  // event, versus the same records as ClassAd events into a scalar engine.
  Engine scalar;
  ShardedEngineOptions opts;
  opts.shards = 4;
  opts.batch_events = 64;
  ShardedEngine sharded(opts);
  const std::vector<std::string> epl = {
      "SELECT count(*) AS n FROM audit WHERE cmd == \"open\" GROUP BY src WINDOW TIME 60s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src, blk WINDOW TIME 60s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY dn WINDOW TIME 60s",
  };
  const std::vector<QueryId> sids = register_all(scalar, epl);
  const std::vector<QueryId> hids = register_all(sharded, epl);
  const audit::AuditSlots slots =
      audit::AuditSlots::resolve(sharded.attr_symbols(), sharded.stream_symbols());
  SlottedEvent scratch;
  std::mt19937 rng{99};
  std::int64_t t_us = 0;
  for (int i = 0; i < 5000; ++i) {
    t_us += static_cast<std::int64_t>(rng() % 5000);
    audit::AuditEvent e;
    e.time = sim::SimTime{t_us};
    e.cmd = (rng() % 3 == 0) ? "open" : "read";
    e.src = "/data/part-" + std::to_string(rng() % 40);
    e.block = static_cast<std::int64_t>(rng() % 200);
    e.datanode = static_cast<std::int64_t>(rng() % 16);
    scalar.push(e.to_cep_event());
    e.to_slotted(slots, scratch);
    sharded.push_slotted(scratch);
  }
  const sim::SimTime now{t_us};
  scalar.advance_to(now);
  sharded.advance_to(now);
  for (std::size_t q = 0; q < epl.size(); ++q) {
    EXPECT_EQ(render(scalar.snapshot(sids[q])), render(sharded.snapshot(hids[q])))
        << "query " << q;
  }
  EXPECT_EQ(scalar.events_processed(), sharded.events_processed());
}

TEST(CepSharded, RegisterAndRemoveFanOut) {
  ShardedEngineOptions opts;
  opts.shards = 3;
  ShardedEngine engine(opts);
  const QueryId a = engine.register_query(
      parse_epl("SELECT count(*) AS n FROM audit GROUP BY src WINDOW TIME 10s"));
  const QueryId b = engine.register_query(
      parse_epl("SELECT count(*) AS n FROM audit GROUP BY dn WINDOW TIME 10s"));
  EXPECT_NE(a, b);
  EXPECT_EQ(engine.query_count(), 2u);
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    EXPECT_EQ(engine.shard(s).query_count(), 2u);
  }
  EXPECT_TRUE(engine.remove_query(a));
  EXPECT_FALSE(engine.remove_query(a));
  EXPECT_EQ(engine.query_count(), 1u);

  Event e{sim::SimTime{1000}, "audit"};
  e.with_string("src", "/x").with_int("dn", 3);
  engine.push(e);
  const auto rows = engine.snapshot(b);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values.get_int("n"), 1);
  EXPECT_TRUE(engine.snapshot(a).empty());
}

}  // namespace
}  // namespace erms::cep
