#include "src/util/table.h"

#include <gtest/gtest.h>

namespace lupine {
namespace {

TEST(TableTest, RendersHeadersAndRows) {
  Table t({"name", "value"});
  t.AddRow("alpha", 1);
  t.AddRow("beta", 2.5);
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.50"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRowVec({"only"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_NE(t.ToString().find("only"), std::string::npos);
}

TEST(TableTest, IntegerValuedDoublesPrintWithoutDecimals) {
  Table t({"v"});
  t.AddRow(15953.0);
  EXPECT_NE(t.ToString().find("15953"), std::string::npos);
  EXPECT_EQ(t.ToString().find("15953.0"), std::string::npos);
}

TEST(TableTest, SmallValuesKeepPrecision) {
  Table t({"v"});
  t.AddRow(0.056);
  EXPECT_NE(t.ToString().find("0.0560"), std::string::npos);
}

}  // namespace
}  // namespace lupine
