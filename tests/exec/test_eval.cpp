#include "exec/expression_eval.hpp"

#include <gtest/gtest.h>

#include "cypher/parser.hpp"
#include "graph/graph.hpp"

namespace rg::exec {
namespace {

using graph::Value;

/// Evaluate a standalone expression against an empty record.
Value ev(const std::string& text) {
  static graph::Graph g;
  RecordLayout layout;
  ExpressionEval eval(g, layout);
  const auto e = cypher::parse_expression(text);
  return eval.eval(*e, Record(0));
}

TEST(Eval, Arithmetic) {
  EXPECT_EQ(ev("1 + 2 * 3").as_int(), 7);
  EXPECT_EQ(ev("(1 + 2) * 3").as_int(), 9);
  EXPECT_DOUBLE_EQ(ev("7 / 2.0").as_double(), 3.5);
  EXPECT_EQ(ev("7 % 3").as_int(), 1);
  EXPECT_DOUBLE_EQ(ev("2 ^ 10").as_double(), 1024.0);
  EXPECT_EQ(ev("-5").as_int(), -5);
  EXPECT_EQ(ev("- -5").as_int(), 5);
}

TEST(Eval, Comparisons) {
  EXPECT_TRUE(ev("1 < 2").as_bool());
  EXPECT_TRUE(ev("2 <= 2").as_bool());
  EXPECT_FALSE(ev("3 < 2").as_bool());
  EXPECT_TRUE(ev("2 = 2.0").as_bool());
  EXPECT_TRUE(ev("1 <> 2").as_bool());
  EXPECT_TRUE(ev("'abc' < 'abd'").as_bool());
}

TEST(Eval, NullComparisonIsNull) {
  EXPECT_TRUE(ev("1 = null").is_null());
  EXPECT_TRUE(ev("null = null").is_null());
  EXPECT_TRUE(ev("null < 3").is_null());
  EXPECT_TRUE(ev("1 + null").is_null());
}

// Cypher three-valued logic truth tables.
struct TriCase {
  const char* expr;
  int expect;  // 1 = true, 0 = false, -1 = null
};

// Name each case by its expression. Without this gtest prints the struct's
// raw bytes, and the `expr` pointer in them changes with every process, so
// the discovered ctest names changed from build to build.
void PrintTo(const TriCase& c, std::ostream* os) { *os << c.expr; }

class TriLogicTest : public ::testing::TestWithParam<TriCase> {};

TEST_P(TriLogicTest, TruthTable) {
  const auto& c = GetParam();
  const Value v = ev(c.expr);
  if (c.expect == -1) {
    EXPECT_TRUE(v.is_null()) << c.expr;
  } else {
    ASSERT_TRUE(v.is_bool()) << c.expr;
    EXPECT_EQ(v.as_bool(), c.expect == 1) << c.expr;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AndOrXorNot, TriLogicTest,
    ::testing::Values(
        TriCase{"true AND true", 1}, TriCase{"true AND false", 0},
        TriCase{"false AND null", 0}, TriCase{"true AND null", -1},
        TriCase{"null AND null", -1}, TriCase{"true OR false", 1},
        TriCase{"false OR false", 0}, TriCase{"false OR null", -1},
        TriCase{"true OR null", 1}, TriCase{"null OR null", -1},
        TriCase{"true XOR false", 1}, TriCase{"true XOR true", 0},
        TriCase{"true XOR null", -1}, TriCase{"NOT true", 0},
        TriCase{"NOT false", 1}, TriCase{"NOT null", -1},
        TriCase{"null IS NULL", 1}, TriCase{"1 IS NULL", 0},
        TriCase{"1 IS NOT NULL", 1}, TriCase{"null IS NOT NULL", 0}));

TEST(Eval, InOperator) {
  EXPECT_TRUE(ev("2 IN [1, 2, 3]").as_bool());
  EXPECT_FALSE(ev("9 IN [1, 2, 3]").as_bool());
  EXPECT_TRUE(ev("9 IN [1, null]").is_null());   // unknown membership
  EXPECT_TRUE(ev("1 IN [1, null]").as_bool());   // found despite null
}

TEST(Eval, StringPredicates) {
  EXPECT_TRUE(ev("'hello' STARTS WITH 'he'").as_bool());
  EXPECT_FALSE(ev("'hello' STARTS WITH 'lo'").as_bool());
  EXPECT_TRUE(ev("'hello' ENDS WITH 'lo'").as_bool());
  EXPECT_TRUE(ev("'hello' CONTAINS 'ell'").as_bool());
  EXPECT_TRUE(ev("1 CONTAINS 'x'").is_null());
}

TEST(Eval, StringFunctions) {
  EXPECT_EQ(ev("toUpper('aBc')").as_string(), "ABC");
  EXPECT_EQ(ev("toLower('aBc')").as_string(), "abc");
  EXPECT_EQ(ev("trim('  x  ')").as_string(), "x");
  EXPECT_EQ(ev("substring('hello', 1, 3)").as_string(), "ell");
  EXPECT_EQ(ev("substring('hello', 3)").as_string(), "lo");
  EXPECT_EQ(ev("size('abcd')").as_int(), 4);
}

TEST(Eval, NumericFunctions) {
  EXPECT_EQ(ev("abs(-3)").as_int(), 3);
  EXPECT_DOUBLE_EQ(ev("sqrt(9.0)").as_double(), 3.0);
  EXPECT_TRUE(ev("sqrt(-1)").is_null());
  EXPECT_DOUBLE_EQ(ev("floor(2.7)").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(ev("ceil(2.1)").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(ev("round(2.5)").as_double(), 3.0);
  EXPECT_EQ(ev("sign(-9)").as_int(), -1);
  EXPECT_EQ(ev("sign(0)").as_int(), 0);
}

TEST(Eval, ConversionFunctions) {
  EXPECT_EQ(ev("toInteger('42')").as_int(), 42);
  EXPECT_EQ(ev("toInteger(3.9)").as_int(), 3);
  EXPECT_TRUE(ev("toInteger('xyz')").is_null());
  EXPECT_DOUBLE_EQ(ev("toFloat('2.5')").as_double(), 2.5);
  EXPECT_EQ(ev("toString(42)").as_string(), "42");
}

TEST(Eval, ListFunctions) {
  EXPECT_EQ(ev("size([1,2,3])").as_int(), 3);
  EXPECT_EQ(ev("head([7,8])").as_int(), 7);
  EXPECT_EQ(ev("last([7,8])").as_int(), 8);
  EXPECT_TRUE(ev("head([])").is_null());
  const auto r = ev("range(1, 5)");
  ASSERT_TRUE(r.is_array());
  EXPECT_EQ(r.as_array().size(), 5u);
  const auto r2 = ev("range(10, 0, -5)");
  EXPECT_EQ(r2.as_array().size(), 3u);
}

TEST(Eval, Coalesce) {
  EXPECT_EQ(ev("coalesce(null, null, 7)").as_int(), 7);
  EXPECT_TRUE(ev("coalesce(null, null)").is_null());
  EXPECT_EQ(ev("coalesce(1, 2)").as_int(), 1);
}

TEST(Eval, UnknownFunctionThrows) {
  EXPECT_THROW(ev("frobnicate(1)"), EvalError);
}

TEST(Eval, UnboundVariableThrows) {
  EXPECT_THROW(ev("nosuchvar + 1"), EvalError);
}

TEST(Eval, EntityFunctions) {
  graph::Graph g;
  const auto person = g.schema().add_label("Person");
  const auto knows = g.schema().add_reltype("KNOWS");
  const auto name = g.schema().add_attr("name");
  graph::AttributeSet attrs;
  attrs.set(name, Value("alice"));
  const auto n0 = g.add_node({person}, std::move(attrs));
  const auto n1 = g.add_node({person});
  const auto e0 = g.add_edge(knows, n0, n1);

  RecordLayout layout;
  const auto ns = layout.get_or_add("n");
  const auto es = layout.get_or_add("e");
  Record rec(2);
  rec[ns] = Value(graph::NodeRef{n0});
  rec[es] = Value(graph::EdgeRef{e0});
  ExpressionEval eval(g, layout);

  auto run = [&](const std::string& text) {
    return eval.eval(*cypher::parse_expression(text), rec);
  };
  EXPECT_EQ(run("id(n)").as_int(), static_cast<std::int64_t>(n0));
  EXPECT_EQ(run("n.name").as_string(), "alice");
  EXPECT_TRUE(run("n.missing").is_null());
  const auto labels = run("labels(n)");
  ASSERT_TRUE(labels.is_array());
  EXPECT_EQ(labels.as_array()[0].as_string(), "Person");
  EXPECT_EQ(run("type(e)").as_string(), "KNOWS");
  EXPECT_EQ(run("id(startNode(e))").as_int(), static_cast<std::int64_t>(n0));
  EXPECT_EQ(run("id(endNode(e))").as_int(), static_cast<std::int64_t>(n1));
  EXPECT_EQ(run("e.weight").is_null(), true);
}

}  // namespace
}  // namespace rg::exec
