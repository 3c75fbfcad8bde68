#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cep/engine.h"
#include "cep/epl_parser.h"
#include "cep/pattern.h"
#include "classad/parser.h"

namespace erms::cep {
namespace {

Event ev(double t_seconds, const std::string& type) {
  return Event{sim::SimTime{static_cast<std::int64_t>(t_seconds * 1e6)}, type};
}

// ---------- windows ----------

TEST(Window, TimeWindowEvictsOldEvents) {
  SlidingWindow w{WindowSpec::time(sim::seconds(10.0))};
  std::vector<double> evicted;
  const auto on_evict = [&](const Event& e) { evicted.push_back(e.time.seconds()); };
  w.push(ev(0.0, "a"), on_evict);
  w.push(ev(5.0, "a"), on_evict);
  w.push(ev(11.0, "a"), on_evict);  // evicts t=0 (0 <= 11-10... boundary)
  EXPECT_EQ(evicted, (std::vector<double>{0.0}));
  EXPECT_EQ(w.size(), 2u);
}

TEST(Window, TimeWindowBoundaryInclusiveEviction) {
  // An event exactly `duration` old is evicted (window is (now-d, now]).
  SlidingWindow w{WindowSpec::time(sim::seconds(10.0))};
  int evictions = 0;
  const auto on_evict = [&](const Event&) { ++evictions; };
  w.push(ev(0.0, "a"), on_evict);
  w.evict_until(sim::SimTime{10'000'000}, on_evict);
  EXPECT_EQ(evictions, 1);
  EXPECT_TRUE(w.empty());
}

TEST(Window, LengthWindowKeepsLastN) {
  SlidingWindow w{WindowSpec::length(3)};
  int evictions = 0;
  const auto on_evict = [&](const Event&) { ++evictions; };
  for (int i = 0; i < 5; ++i) {
    w.push(ev(i, "a"), on_evict);
  }
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(evictions, 2);
  EXPECT_DOUBLE_EQ(w.events().front().time.seconds(), 2.0);
}

TEST(Window, LengthWindowIgnoresEvictUntil) {
  SlidingWindow w{WindowSpec::length(10)};
  w.push(ev(0.0, "a"), nullptr);
  w.evict_until(sim::SimTime{100'000'000}, nullptr);
  EXPECT_EQ(w.size(), 1u);
}

// ---------- engine ----------

Query count_by_user(double window_s) {
  Query q;
  q.from = "req";
  q.group_by = {"user"};
  q.select = {Aggregate{Aggregate::Kind::kCount, "", "n"}};
  q.window = WindowSpec::time(sim::seconds(window_s));
  return q;
}

TEST(Engine, CountsPerGroup) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(60.0));
  engine.push(ev(1.0, "req").with_string("user", "alice"));
  engine.push(ev(2.0, "req").with_string("user", "bob"));
  engine.push(ev(3.0, "req").with_string("user", "alice"));
  const auto rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 2u);
  const auto alice = engine.group_row(id, {"alice"});
  ASSERT_TRUE(alice.has_value());
  EXPECT_EQ(alice->values.get_int("n"), 2);
}

TEST(Engine, WindowEvictionDecrementsCounts) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(10.0));
  engine.push(ev(0.0, "req").with_string("user", "alice"));
  engine.push(ev(5.0, "req").with_string("user", "alice"));
  engine.push(ev(12.0, "req").with_string("user", "alice"));
  const auto row = engine.group_row(id, {"alice"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 2);  // t=0 expired
}

TEST(Engine, AdvanceToEvictsWithoutEvents) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(10.0));
  engine.push(ev(0.0, "req").with_string("user", "alice"));
  engine.advance_to(sim::SimTime{30'000'000});
  EXPECT_TRUE(engine.snapshot(id).empty());  // group removed at count 0
}

TEST(Engine, WhereFilters) {
  Query q = count_by_user(60.0);
  q.where = classad::parse_expr("cmd == \"open\"");
  Engine engine;
  const QueryId id = engine.register_query(std::move(q));
  engine.push(ev(1.0, "req").with_string("user", "a").with_string("cmd", "open"));
  engine.push(ev(2.0, "req").with_string("user", "a").with_string("cmd", "delete"));
  const auto row = engine.group_row(id, {"a"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 1);
}

TEST(Engine, FromFiltersStream) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(60.0));
  engine.push(ev(1.0, "req").with_string("user", "a"));
  engine.push(ev(2.0, "other").with_string("user", "a"));
  const auto row = engine.group_row(id, {"a"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 1);
}

TEST(Engine, SumAvgMinMax) {
  Query q;
  q.from = "m";
  q.group_by = {"k"};
  q.select = {Aggregate{Aggregate::Kind::kSum, "v", "s"},
              Aggregate{Aggregate::Kind::kAvg, "v", "a"},
              Aggregate{Aggregate::Kind::kMin, "v", "lo"},
              Aggregate{Aggregate::Kind::kMax, "v", "hi"}};
  q.window = WindowSpec::time(sim::seconds(100.0));
  Engine engine;
  const QueryId id = engine.register_query(std::move(q));
  for (const double v : {4.0, 1.0, 7.0}) {
    engine.push(ev(v, "m").with_string("k", "g").with_real("v", v));
  }
  const auto row = engine.group_row(id, {"g"});
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ(*row->values.get_real("s"), 12.0);
  EXPECT_DOUBLE_EQ(*row->values.get_real("a"), 4.0);
  EXPECT_DOUBLE_EQ(*row->values.get_real("lo"), 1.0);
  EXPECT_DOUBLE_EQ(*row->values.get_real("hi"), 7.0);
}

TEST(Engine, MinMaxSurviveEviction) {
  Query q;
  q.from = "m";
  q.select = {Aggregate{Aggregate::Kind::kMax, "v", "hi"}};
  q.window = WindowSpec::time(sim::seconds(10.0));
  Engine engine;
  const QueryId id = engine.register_query(std::move(q));
  engine.push(ev(0.0, "m").with_real("v", 100.0));
  engine.push(ev(5.0, "m").with_real("v", 1.0));
  engine.push(ev(12.0, "m").with_real("v", 2.0));  // evicts the 100
  const auto rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(*rows[0].values.get_real("hi"), 2.0);
}

TEST(Engine, HavingGatesListener) {
  Query q = count_by_user(60.0);
  q.having = classad::parse_expr("n > 2");
  Engine engine;
  std::vector<std::int64_t> fired;
  engine.register_query(std::move(q), [&](const ResultRow& row) {
    fired.push_back(*row.values.get_int("n"));
  });
  for (int i = 0; i < 4; ++i) {
    engine.push(ev(i, "req").with_string("user", "a"));
  }
  // Listener fires on the 3rd and 4th events (n=3, n=4).
  EXPECT_EQ(fired, (std::vector<std::int64_t>{3, 4}));
}

TEST(Engine, RemoveQuery) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(60.0));
  EXPECT_TRUE(engine.remove_query(id));
  EXPECT_FALSE(engine.remove_query(id));
  EXPECT_TRUE(engine.snapshot(id).empty());
}

TEST(Engine, LengthWindowQuery) {
  Query q;
  q.from = "m";
  q.select = {Aggregate{Aggregate::Kind::kCount, "", "n"}};
  q.window = WindowSpec::length(3);
  Engine engine;
  const QueryId id = engine.register_query(std::move(q));
  for (int i = 0; i < 10; ++i) {
    engine.push(ev(i, "m"));
  }
  const auto rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values.get_int("n"), 3);
}

TEST(Engine, MultipleQueriesIndependent) {
  Engine engine;
  const QueryId q1 = engine.register_query(count_by_user(60.0));
  Query by_cmd;
  by_cmd.from = "req";
  by_cmd.group_by = {"cmd"};
  by_cmd.select = {Aggregate{Aggregate::Kind::kCount, "", "n"}};
  by_cmd.window = WindowSpec::time(sim::seconds(60.0));
  const QueryId q2 = engine.register_query(std::move(by_cmd));
  engine.push(ev(1.0, "req").with_string("user", "a").with_string("cmd", "open"));
  engine.push(ev(2.0, "req").with_string("user", "b").with_string("cmd", "open"));
  EXPECT_EQ(engine.snapshot(q1).size(), 2u);
  const auto open = engine.group_row(q2, {"open"});
  ASSERT_TRUE(open.has_value());
  EXPECT_EQ(open->values.get_int("n"), 2);
  EXPECT_EQ(engine.events_processed(), 2u);
}

// ---------- EPL parser ----------

TEST(Epl, ParsesFullStatement) {
  const Query q = parse_epl(
      "SELECT count(*) AS n, avg(latency) AS lat FROM audit "
      "WHERE cmd == \"open\" GROUP BY src, dn WINDOW TIME 60s HAVING n > 10");
  EXPECT_EQ(q.from, "audit");
  ASSERT_EQ(q.select.size(), 2u);
  EXPECT_EQ(q.select[0].kind, Aggregate::Kind::kCount);
  EXPECT_EQ(q.select[0].alias, "n");
  EXPECT_EQ(q.select[1].kind, Aggregate::Kind::kAvg);
  EXPECT_EQ(q.select[1].attr, "latency");
  EXPECT_EQ(q.group_by, (std::vector<std::string>{"src", "dn"}));
  EXPECT_EQ(q.window.kind, WindowSpec::Kind::kTime);
  EXPECT_EQ(q.window.duration.micros(), 60'000'000);
  ASSERT_NE(q.where, nullptr);
  ASSERT_NE(q.having, nullptr);
}

TEST(Epl, WindowUnits) {
  EXPECT_EQ(parse_epl("SELECT count(*) FROM s WINDOW TIME 500ms").window.duration.micros(),
            500'000);
  EXPECT_EQ(parse_epl("SELECT count(*) FROM s WINDOW TIME 2m").window.duration.micros(),
            120'000'000);
  EXPECT_EQ(parse_epl("SELECT count(*) FROM s WINDOW TIME 1h").window.duration.micros(),
            3'600'000'000ll);
}

TEST(Epl, LengthWindow) {
  const Query q = parse_epl("SELECT count(*) FROM s WINDOW LENGTH 250");
  EXPECT_EQ(q.window.kind, WindowSpec::Kind::kLength);
  EXPECT_EQ(q.window.count, 250u);
}

TEST(Epl, DefaultAliases) {
  const Query q = parse_epl("SELECT count(*), sum(x) FROM s WINDOW TIME 1s");
  EXPECT_EQ(q.select[0].alias, "count");
  EXPECT_EQ(q.select[1].alias, "sum_x");
}

TEST(Epl, CaseInsensitiveKeywords) {
  const Query q =
      parse_epl("select count(*) as N from S where a > 1 window time 5s having N > 2");
  EXPECT_EQ(q.from, "S");
  EXPECT_NE(q.where, nullptr);
  EXPECT_NE(q.having, nullptr);
}

TEST(Epl, KeywordInsideStringLiteralIgnored) {
  const Query q = parse_epl(
      "SELECT count(*) AS n FROM s WHERE cmd == \"where from\" WINDOW TIME 1s");
  EXPECT_EQ(q.from, "s");
  ASSERT_NE(q.where, nullptr);
}

TEST(Epl, RejectsMalformed) {
  EXPECT_THROW(parse_epl("FROM s WINDOW TIME 1s"), classad::ParseError);
  EXPECT_THROW(parse_epl("SELECT count(*) FROM s"), classad::ParseError);  // no window
  EXPECT_THROW(parse_epl("SELECT count(*) WINDOW TIME 1s"), classad::ParseError);
  EXPECT_THROW(parse_epl("SELECT nonsense(*) FROM s WINDOW TIME 1s"), classad::ParseError);
  EXPECT_THROW(parse_epl("SELECT sum(*) FROM s WINDOW TIME 1s"), classad::ParseError);
  EXPECT_THROW(parse_epl("SELECT count(*) FROM s WINDOW TIME abc"), classad::ParseError);
  EXPECT_THROW(parse_epl("SELECT count(*) FROM s WINDOW LENGTH -3"), classad::ParseError);
  EXPECT_THROW(parse_epl("SELECT count(*) FROM s GROUP x WINDOW TIME 1s"),
               classad::ParseError);
}

TEST(Epl, GroupByIsCappedAtTheKeyMaskWidth) {
  const auto group_by = [](std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
      out += (i == 0 ? "a" : ", a") + std::to_string(i);
    }
    return out;
  };
  const std::string wide = "SELECT count(*) AS n FROM s GROUP BY " + group_by(kMaxGroupBy) +
                           " WINDOW TIME 10s";
  EXPECT_THROW(parse_epl("SELECT count(*) FROM s GROUP BY " + group_by(kMaxGroupBy + 1) +
                         " WINDOW TIME 10s"),
               classad::ParseError);

  // The widest accepted key works end to end, string columns included.
  Engine engine;
  const QueryId id = engine.register_query(parse_epl(wide));
  Event e = ev(1.0, "s");
  for (std::size_t i = 0; i < kMaxGroupBy; ++i) {
    e.with_string("a" + std::to_string(i), i % 2 == 0 ? "x" : std::to_string(i));
  }
  engine.push(e);
  engine.push(e);
  const auto rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values.get_int("n"), 2);
  EXPECT_EQ(rows[0].values.get_string("a31"), "31");

  Query too_wide = parse_epl(wide);
  too_wide.group_by.push_back("extra");
  EXPECT_THROW(engine.register_query(std::move(too_wide)), std::invalid_argument);
  EXPECT_EQ(engine.query_count(), 1u);
}

// ---------- pattern detector ----------

Pattern born_hot(std::size_t followers, double within_s) {
  Pattern p;
  p.name = "born-hot";
  p.from = "audit";
  p.opening = classad::parse_expr("cmd == \"create\"");
  p.follower = classad::parse_expr("cmd == \"read\"");
  p.correlate_by = {"src"};
  p.follower_count = followers;
  p.within = sim::seconds(within_s);
  return p;
}

Event audit_ev(double t, const std::string& cmd, const std::string& src) {
  return ev(t, "audit").with_string("cmd", cmd).with_string("src", src);
}

TEST(Patterns, FiresOnSequenceWithinWindow) {
  PatternDetector det;
  std::vector<PatternMatch> fired;
  det.add_pattern(born_hot(3, 60.0),
                  [&](const PatternMatch& m) { fired.push_back(m); });
  det.push(audit_ev(0.0, "create", "/f"));
  det.push(audit_ev(10.0, "read", "/f"));
  det.push(audit_ev(20.0, "read", "/f"));
  EXPECT_TRUE(fired.empty());
  det.push(audit_ev(30.0, "read", "/f"));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].pattern, "born-hot");
  EXPECT_EQ(fired[0].key, (std::vector<std::string>{"/f"}));
  EXPECT_DOUBLE_EQ(fired[0].opened.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(fired[0].completed.seconds(), 30.0);
  EXPECT_EQ(det.matches_fired(), 1u);
}

TEST(Patterns, WindowExpiryDropsInstance) {
  PatternDetector det;
  int fired = 0;
  const PatternId id =
      det.add_pattern(born_hot(2, 30.0), [&](const PatternMatch&) { ++fired; });
  det.push(audit_ev(0.0, "create", "/f"));
  EXPECT_EQ(det.open_instances(id), 1u);
  det.push(audit_ev(10.0, "read", "/f"));
  // The window closes; followers after it must not complete the pattern.
  det.push(audit_ev(100.0, "read", "/f"));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(det.open_instances(id), 0u);
}

TEST(Patterns, CorrelationKeysAreIndependent) {
  PatternDetector det;
  std::vector<std::string> fired;
  det.add_pattern(born_hot(2, 60.0),
                  [&](const PatternMatch& m) { fired.push_back(m.key[0]); });
  det.push(audit_ev(0.0, "create", "/a"));
  det.push(audit_ev(1.0, "create", "/b"));
  det.push(audit_ev(2.0, "read", "/a"));
  det.push(audit_ev(3.0, "read", "/b"));
  det.push(audit_ev(4.0, "read", "/b"));
  EXPECT_EQ(fired, (std::vector<std::string>{"/b"}));
  det.push(audit_ev(5.0, "read", "/a"));
  EXPECT_EQ(fired, (std::vector<std::string>{"/b", "/a"}));
}

TEST(Patterns, FollowersWithoutOpenerIgnored) {
  PatternDetector det;
  int fired = 0;
  det.add_pattern(born_hot(1, 60.0), [&](const PatternMatch&) { ++fired; });
  det.push(audit_ev(0.0, "read", "/f"));
  det.push(audit_ev(1.0, "read", "/f"));
  EXPECT_EQ(fired, 0);
}

TEST(Patterns, ReopenAfterMatch) {
  PatternDetector det;
  int fired = 0;
  det.add_pattern(born_hot(1, 60.0), [&](const PatternMatch&) { ++fired; });
  det.push(audit_ev(0.0, "create", "/f"));
  det.push(audit_ev(1.0, "read", "/f"));
  EXPECT_EQ(fired, 1);
  // After completion, reads alone must not fire again until a new opener.
  det.push(audit_ev(2.0, "read", "/f"));
  EXPECT_EQ(fired, 1);
  det.push(audit_ev(3.0, "create", "/f"));
  det.push(audit_ev(4.0, "read", "/f"));
  EXPECT_EQ(fired, 2);
}

TEST(Patterns, OpenerRefreshRestartsWindow) {
  PatternDetector det;
  int fired = 0;
  det.add_pattern(born_hot(2, 30.0), [&](const PatternMatch&) { ++fired; });
  det.push(audit_ev(0.0, "create", "/f"));
  det.push(audit_ev(10.0, "read", "/f"));
  det.push(audit_ev(25.0, "create", "/f"));  // refresh: follower count resets
  det.push(audit_ev(40.0, "read", "/f"));
  EXPECT_EQ(fired, 0);  // only one follower since the refresh
  det.push(audit_ev(50.0, "read", "/f"));
  EXPECT_EQ(fired, 1);
}

TEST(Patterns, StreamFilterApplies) {
  PatternDetector det;
  int fired = 0;
  det.add_pattern(born_hot(1, 60.0), [&](const PatternMatch&) { ++fired; });
  det.push(ev(0.0, "other").with_string("cmd", "create").with_string("src", "/f"));
  det.push(ev(1.0, "other").with_string("cmd", "read").with_string("src", "/f"));
  EXPECT_EQ(fired, 0);
}

TEST(Patterns, RemovePattern) {
  PatternDetector det;
  const PatternId id = det.add_pattern(born_hot(1, 60.0), nullptr);
  EXPECT_EQ(det.pattern_count(), 1u);
  EXPECT_TRUE(det.remove_pattern(id));
  EXPECT_FALSE(det.remove_pattern(id));
  EXPECT_EQ(det.pattern_count(), 0u);
}

TEST(EplPattern, ParsesFullStatement) {
  const Pattern p = parse_epl_pattern(
      "PATTERN born_hot ON audit OPENING cmd == \"create\" "
      "FOLLOWED BY 10 MATCHING cmd == \"read\" CORRELATE BY src WITHIN 120s");
  EXPECT_EQ(p.name, "born_hot");
  EXPECT_EQ(p.from, "audit");
  ASSERT_NE(p.opening, nullptr);
  ASSERT_NE(p.follower, nullptr);
  EXPECT_EQ(p.follower_count, 10u);
  EXPECT_EQ(p.correlate_by, (std::vector<std::string>{"src"}));
  EXPECT_EQ(p.within.micros(), 120'000'000);
}

TEST(EplPattern, OptionalClausesAndUnits) {
  const Pattern p = parse_epl_pattern(
      "PATTERN x OPENING a > 1 FOLLOWED BY 2 MATCHING b > 2 WITHIN 2m");
  EXPECT_TRUE(p.from.empty());
  EXPECT_TRUE(p.correlate_by.empty());
  EXPECT_EQ(p.within.micros(), 120'000'000);
}

TEST(EplPattern, ParsedPatternDetects) {
  PatternDetector det;
  int fired = 0;
  det.add_pattern(parse_epl_pattern("PATTERN b ON audit OPENING cmd == \"create\" "
                                    "FOLLOWED BY 2 MATCHING cmd == \"read\" "
                                    "CORRELATE BY src WITHIN 60s"),
                  [&](const PatternMatch&) { ++fired; });
  det.push(audit_ev(0.0, "create", "/f"));
  det.push(audit_ev(1.0, "read", "/f"));
  det.push(audit_ev(2.0, "read", "/f"));
  EXPECT_EQ(fired, 1);
}

TEST(EplPattern, RejectsMalformed) {
  EXPECT_THROW(parse_epl_pattern("OPENING a FOLLOWED BY 1 MATCHING b WITHIN 1s"),
               classad::ParseError);  // must start with PATTERN
  EXPECT_THROW(parse_epl_pattern("PATTERN p FOLLOWED BY 1 MATCHING b WITHIN 1s"),
               classad::ParseError);  // missing OPENING
  EXPECT_THROW(parse_epl_pattern("PATTERN p OPENING a FOLLOWED BY 1 WITHIN 1s"),
               classad::ParseError);  // missing MATCHING
  EXPECT_THROW(parse_epl_pattern("PATTERN p OPENING a FOLLOWED BY 1 MATCHING b"),
               classad::ParseError);  // missing WITHIN
  EXPECT_THROW(
      parse_epl_pattern("PATTERN p OPENING a FOLLOWED BY 0 MATCHING b WITHIN 1s"),
      classad::ParseError);  // zero count
  EXPECT_THROW(
      parse_epl_pattern("PATTERN p OPENING a FOLLOWED 3 MATCHING b WITHIN 1s"),
      classad::ParseError);  // FOLLOWED without BY
}

TEST(Epl, ParsedQueryRunsEndToEnd) {
  Engine engine;
  const QueryId id = engine.register_query(parse_epl(
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW TIME "
      "30s"));
  for (int i = 0; i < 5; ++i) {
    engine.push(ev(i, "audit").with_string("cmd", "read").with_string("src", "/f"));
  }
  engine.push(ev(5.0, "audit").with_string("cmd", "open").with_string("src", "/f"));
  const auto row = engine.group_row(id, {"/f"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 5);
}

}  // namespace
}  // namespace erms::cep
