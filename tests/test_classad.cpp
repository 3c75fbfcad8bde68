#include <gtest/gtest.h>

#include <string>

#include "cep/epl_parser.h"
#include "classad/classad.h"
#include "classad/matchmaker.h"
#include "classad/parser.h"

namespace erms::classad {
namespace {

Value eval(const std::string& text, const ClassAd* my = nullptr,
           const ClassAd* target = nullptr) {
  const ExprPtr expr = parse_expr(text);
  EvalContext ctx;
  ctx.my = my;
  ctx.target = target;
  return expr->evaluate(ctx);
}

// ---------- literals & arithmetic ----------

TEST(Eval, IntegerArithmetic) {
  EXPECT_EQ(eval("1 + 2 * 3"), Value::integer(7));
  EXPECT_EQ(eval("(1 + 2) * 3"), Value::integer(9));
  EXPECT_EQ(eval("7 / 2"), Value::integer(3));
  EXPECT_EQ(eval("7 % 3"), Value::integer(1));
  EXPECT_EQ(eval("-4 + 1"), Value::integer(-3));
}

TEST(Eval, RealPromotion) {
  EXPECT_EQ(eval("1 + 2.5"), Value::real(3.5));
  EXPECT_EQ(eval("5 / 2.0"), Value::real(2.5));
}

TEST(Eval, DivisionByZero) {
  EXPECT_TRUE(eval("1 / 0").is_error());
  EXPECT_TRUE(eval("1.0 / 0.0").is_error());
  EXPECT_TRUE(eval("1 % 0").is_error());
}

TEST(Eval, Comparisons) {
  EXPECT_EQ(eval("3 < 4"), Value::boolean(true));
  EXPECT_EQ(eval("3 >= 4"), Value::boolean(false));
  EXPECT_EQ(eval("2 == 2.0"), Value::boolean(true));
  EXPECT_EQ(eval("2 != 3"), Value::boolean(true));
}

TEST(Eval, StringComparisonCaseInsensitive) {
  EXPECT_EQ(eval("\"Linux\" == \"linux\""), Value::boolean(true));
  EXPECT_EQ(eval("\"a\" < \"b\""), Value::boolean(true));
}

TEST(Eval, Conditional) {
  EXPECT_EQ(eval("true ? 1 : 2"), Value::integer(1));
  EXPECT_EQ(eval("3 > 4 ? 1 : 2"), Value::integer(2));
  EXPECT_TRUE(eval("undefined ? 1 : 2").is_undefined());
}

// ---------- three-valued logic ----------

TEST(Eval, UndefinedPropagatesThroughArithmetic) {
  EXPECT_TRUE(eval("undefined + 1").is_undefined());
  EXPECT_TRUE(eval("undefined < 3").is_undefined());
  EXPECT_TRUE(eval("-undefined").is_undefined());
}

TEST(Eval, ErrorDominates) {
  EXPECT_TRUE(eval("error + 1").is_error());
  EXPECT_TRUE(eval("\"s\" + 1").is_error());
}

TEST(Eval, NonStrictAnd) {
  // false && X == false even when X is undefined.
  EXPECT_EQ(eval("false && undefined"), Value::boolean(false));
  EXPECT_EQ(eval("undefined && false"), Value::boolean(false));
  EXPECT_TRUE(eval("true && undefined").is_undefined());
  EXPECT_EQ(eval("true && true"), Value::boolean(true));
}

TEST(Eval, NonStrictOr) {
  EXPECT_EQ(eval("true || undefined"), Value::boolean(true));
  EXPECT_EQ(eval("undefined || true"), Value::boolean(true));
  EXPECT_TRUE(eval("false || undefined").is_undefined());
}

TEST(Eval, NotOperator) {
  EXPECT_EQ(eval("!true"), Value::boolean(false));
  EXPECT_TRUE(eval("!undefined").is_undefined());
}

// ---------- functions ----------

TEST(Eval, IsUndefinedIsError) {
  EXPECT_EQ(eval("isUndefined(undefined)"), Value::boolean(true));
  EXPECT_EQ(eval("isUndefined(1)"), Value::boolean(false));
  EXPECT_EQ(eval("isError(error)"), Value::boolean(true));
  EXPECT_EQ(eval("isError(2)"), Value::boolean(false));
}

TEST(Eval, NumericFunctions) {
  EXPECT_EQ(eval("floor(2.7)"), Value::integer(2));
  EXPECT_EQ(eval("ceil(2.1)"), Value::integer(3));
  EXPECT_EQ(eval("round(2.5)"), Value::integer(3));
  EXPECT_EQ(eval("abs(-5)"), Value::integer(5));
  EXPECT_EQ(eval("min(3, 7)"), Value::integer(3));
  EXPECT_EQ(eval("max(3, 7)"), Value::integer(7));
  EXPECT_EQ(eval("int(3.9)"), Value::integer(3));
  EXPECT_EQ(eval("real(3)"), Value::real(3.0));
}

TEST(Eval, Strcat) {
  EXPECT_EQ(eval("strcat(\"a\", \"b\", \"c\")"), Value::string("abc"));
  EXPECT_TRUE(eval("strcat(\"a\", 1)").is_error());
}

TEST(Eval, UnknownFunctionIsError) { EXPECT_TRUE(eval("nosuchfn(1)").is_error()); }

// ---------- attribute references ----------

TEST(Eval, UnscopedResolvesMyFirst) {
  ClassAd my;
  my.insert_int("X", 1);
  ClassAd target;
  target.insert_int("X", 2);
  EXPECT_EQ(eval("X", &my, &target), Value::integer(1));
  EXPECT_EQ(eval("TARGET.X", &my, &target), Value::integer(2));
  EXPECT_EQ(eval("MY.X", &my, &target), Value::integer(1));
}

TEST(Eval, UnscopedFallsBackToTarget) {
  ClassAd my;
  ClassAd target;
  target.insert_int("Y", 9);
  EXPECT_EQ(eval("Y", &my, &target), Value::integer(9));
}

TEST(Eval, MissingAttrIsUndefined) {
  ClassAd my;
  EXPECT_TRUE(eval("Nope", &my).is_undefined());
}

TEST(Eval, ChainedReferences) {
  ClassAd my;
  my.insert("A", parse_expr("B + 1"));
  my.insert_int("B", 41);
  EXPECT_EQ(my.evaluate("A"), Value::integer(42));
}

TEST(Eval, ReferenceCycleIsError) {
  ClassAd my;
  my.insert("A", parse_expr("B"));
  my.insert("B", parse_expr("A"));
  EXPECT_TRUE(my.evaluate("A").is_error());
}

TEST(Eval, CrossAdReferences) {
  // MY.Requirements referencing TARGET re-roots evaluation in the target ad.
  ClassAd machine;
  machine.insert_int("Memory", 4096);
  ClassAd job;
  job.insert("Requirements", parse_expr("TARGET.Memory >= 2048"));
  EXPECT_EQ(job.evaluate("Requirements", &machine), Value::boolean(true));
}

// ---------- ClassAd container ----------

TEST(ClassAdTest, CaseInsensitiveNames) {
  ClassAd ad;
  ad.insert_int("FooBar", 1);
  EXPECT_TRUE(ad.contains("foobar"));
  EXPECT_TRUE(ad.contains("FOOBAR"));
  EXPECT_EQ(ad.get_int("fooBAR"), 1);
}

TEST(ClassAdTest, TypedAccessors) {
  ClassAd ad;
  ad.insert_int("i", 5);
  ad.insert_real("r", 2.5);
  ad.insert_bool("b", true);
  ad.insert_string("s", "hi");
  EXPECT_EQ(ad.get_int("i"), 5);
  EXPECT_EQ(ad.get_real("r"), 2.5);
  EXPECT_EQ(ad.get_real("i"), 5.0);  // numeric promotion
  EXPECT_EQ(ad.get_bool("b"), true);
  EXPECT_EQ(ad.get_string("s"), "hi");
  EXPECT_FALSE(ad.get_int("s").has_value());
  EXPECT_FALSE(ad.get_int("missing").has_value());
}

TEST(ClassAdTest, EraseAndSize) {
  ClassAd ad;
  ad.insert_int("a", 1);
  ad.insert_int("b", 2);
  EXPECT_EQ(ad.size(), 2u);
  EXPECT_TRUE(ad.erase("A"));
  EXPECT_FALSE(ad.erase("A"));
  EXPECT_EQ(ad.size(), 1u);
}

// ---------- parser ----------

TEST(Parser, ParsesFullAd) {
  const ClassAd ad = parse_classad("[ Cpus = 4; Memory = 8192; Arch = \"x86_64\"; ]");
  EXPECT_EQ(ad.get_int("Cpus"), 4);
  EXPECT_EQ(ad.get_int("Memory"), 8192);
  EXPECT_EQ(ad.get_string("Arch"), "x86_64");
}

TEST(Parser, ParsesBareAssignments) {
  const ClassAd ad = parse_classad("A = 1; B = A + 1");
  EXPECT_EQ(ad.get_int("B"), 2);
}

TEST(Parser, Comments) {
  const ClassAd ad = parse_classad("A = 1; // trailing comment\nB = 2");
  EXPECT_EQ(ad.get_int("B"), 2);
}

TEST(Parser, ErrorsCarryOffsets) {
  try {
    parse_expr("1 + ");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GE(e.offset(), 3u);
  }
}

TEST(Parser, RejectsMalformed) {
  EXPECT_THROW(parse_expr("(1 + 2"), ParseError);
  EXPECT_THROW(parse_expr("1 &"), ParseError);
  EXPECT_THROW(parse_expr("\"unterminated"), ParseError);
  EXPECT_THROW(parse_classad("[ A = 1"), ParseError);
  EXPECT_THROW(parse_classad("[ = 1 ]"), ParseError);
}

TEST(Parser, UnparseRoundTrip) {
  const ExprPtr e = parse_expr("(Memory >= 2048) && (Arch == \"x86_64\")");
  const ExprPtr e2 = parse_expr(e->unparse());
  ClassAd ad;
  ad.insert_int("Memory", 4096);
  ad.insert_string("Arch", "x86_64");
  EXPECT_EQ(ad.evaluate_expr(*e2), Value::boolean(true));
}

TEST(Parser, ScientificNotation) {
  EXPECT_EQ(eval("1.5e3"), Value::real(1500.0));
  EXPECT_EQ(eval("2e2"), Value::real(200.0));
}

// ---------- nesting depth limit ----------

/// `levels` nested parentheses around 1: an expression `levels` + 1 deep.
std::string nested_parens(std::size_t levels) {
  return std::string(levels, '(') + "1" + std::string(levels, ')');
}

/// `ops` chained unary minuses before 1.
std::string unary_chain(std::size_t ops) { return std::string(ops, '-') + "1"; }

/// `1+1+…+1` with `terms` terms: flat text, but a left-deep tree `terms` deep.
std::string flat_sum(std::size_t terms) {
  std::string text = "1";
  for (std::size_t i = 1; i < terms; ++i) {
    text += "+1";
  }
  return text;
}

TEST(ParserDepth, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  EXPECT_THROW(parse_expr(nested_parens(20'000)), ParseError);
  EXPECT_THROW(parse_expr(unary_chain(20'000)), ParseError);
  EXPECT_THROW(parse_expr(flat_sum(100'000)), ParseError);
  EXPECT_THROW(parse_classad("A = " + nested_parens(20'000)), ParseError);
  // Calls and conditionals nest through the same recursion.
  std::string calls;
  std::string choices;
  for (int i = 0; i < 20'000; ++i) {
    calls += "abs(";
    choices += "true ? 1 : ";
  }
  EXPECT_THROW(parse_expr(calls + "1" + std::string(20'000, ')')), ParseError);
  EXPECT_THROW(parse_expr(choices + "1"), ParseError);
}

TEST(ParserDepth, LimitIsExact) {
  // kMaxExprDepth levels parse, evaluate and unparse; one more is refused.
  EXPECT_EQ(eval(nested_parens(kMaxExprDepth - 1)), Value::integer(1));
  EXPECT_EQ(eval(unary_chain(kMaxExprDepth - 1)),
            Value::integer(kMaxExprDepth % 2 == 0 ? -1 : 1));
  EXPECT_EQ(eval(flat_sum(kMaxExprDepth)),
            Value::integer(static_cast<std::int64_t>(kMaxExprDepth)));
  EXPECT_FALSE(parse_expr(flat_sum(kMaxExprDepth))->unparse().empty());
  EXPECT_THROW(parse_expr(nested_parens(kMaxExprDepth)), ParseError);
  EXPECT_THROW(parse_expr(unary_chain(kMaxExprDepth)), ParseError);
  EXPECT_THROW(parse_expr(flat_sum(kMaxExprDepth + 1)), ParseError);
}

TEST(ParserDepth, DeepWhereClauseFailsEplParse) {
  const std::string statement = "SELECT count(*) AS n FROM audit WHERE " + nested_parens(20'000) +
                                " WINDOW TIME 60s";
  EXPECT_THROW(cep::parse_epl(statement), ParseError);
  // The same statement at a sane depth parses.
  EXPECT_NE(cep::parse_epl("SELECT count(*) AS n FROM audit WHERE " + nested_parens(8) +
                           " WINDOW TIME 60s")
                .where,
            nullptr);
}

// ---------- matchmaking ----------

ClassAd machine_ad(int memory, const std::string& arch) {
  ClassAd ad;
  ad.insert_int("Memory", memory);
  ad.insert_string("Arch", arch);
  return ad;
}

TEST(Matchmaker, SymmetricMatch) {
  ClassAd job;
  job.insert("Requirements", parse_expr("TARGET.Memory >= 2048"));
  ClassAd machine = machine_ad(4096, "x86_64");
  machine.insert("Requirements", parse_expr("true"));
  EXPECT_TRUE(Matchmaker::matches(job, machine));
}

TEST(Matchmaker, RejectsWhenEitherSideFails) {
  ClassAd job;
  job.insert("Requirements", parse_expr("TARGET.Memory >= 8192"));
  ClassAd machine = machine_ad(4096, "x86_64");
  EXPECT_FALSE(Matchmaker::matches(job, machine));

  ClassAd picky_machine = machine_ad(16384, "x86_64");
  picky_machine.insert("Requirements", parse_expr("TARGET.User == \"alice\""));
  ClassAd job2;
  job2.insert("Requirements", parse_expr("true"));
  job2.insert_string("User", "bob");
  EXPECT_FALSE(Matchmaker::matches(job2, picky_machine));
}

TEST(Matchmaker, MissingRequirementsMeansTrue) {
  ClassAd a;
  ClassAd b;
  EXPECT_TRUE(Matchmaker::matches(a, b));
}

TEST(Matchmaker, UndefinedRequirementsIsNoMatch) {
  ClassAd job;
  job.insert("Requirements", parse_expr("TARGET.NoSuchAttr >= 1"));
  ClassAd machine = machine_ad(4096, "x86_64");
  EXPECT_FALSE(Matchmaker::matches(job, machine));
}

TEST(Matchmaker, BestMatchUsesRank) {
  ClassAd job;
  job.insert("Requirements", parse_expr("TARGET.Memory >= 1024"));
  job.insert("Rank", parse_expr("TARGET.Memory"));
  std::vector<ClassAd> machines = {machine_ad(2048, "a"), machine_ad(8192, "b"),
                                   machine_ad(4096, "c")};
  const auto best = Matchmaker::best_match(job, machines);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->index, 1u);
  EXPECT_EQ(best->rank, 8192.0);
}

TEST(Matchmaker, AllMatchesSortedByRank) {
  ClassAd job;
  job.insert("Rank", parse_expr("TARGET.Memory"));
  std::vector<ClassAd> machines = {machine_ad(1, "a"), machine_ad(3, "b"),
                                   machine_ad(2, "c")};
  const auto all = Matchmaker::all_matches(job, machines);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].index, 1u);
  EXPECT_EQ(all[1].index, 2u);
  EXPECT_EQ(all[2].index, 0u);
}

TEST(Matchmaker, NoCandidates) {
  ClassAd job;
  EXPECT_FALSE(Matchmaker::best_match(job, {}).has_value());
}

}  // namespace
}  // namespace erms::classad
