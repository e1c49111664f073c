#include "src/util/json.h"

#include <gtest/gtest.h>

namespace lupine {
namespace {

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("hello world"), "hello world");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line1\nline2\ttab\rcr"), "line1\\nline2\\ttab\\rcr");
  // Other control bytes as \u00XX — including the cache-key separators.
  EXPECT_EQ(JsonEscape(std::string("a\x1f") + "b"), "a\\u001fb");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
}

TEST(JsonEscapeTest, HighBytesAreNotSignExtended) {
  // 0xE9 must pass through as-is (UTF-8 continuation territory), never
  // become \uffe9 via signed-char sign extension.
  const std::string s = "caf\xc3\xa9";
  EXPECT_EQ(JsonEscape(s), s);
}

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(ParseJson("true")->boolean, true);
  EXPECT_EQ(ParseJson("false")->boolean, false);
  EXPECT_DOUBLE_EQ(ParseJson("3.25")->number, 3.25);
  EXPECT_DOUBLE_EQ(ParseJson("-17")->number, -17.0);
  EXPECT_DOUBLE_EQ(ParseJson("1e3")->number, 1000.0);
  EXPECT_EQ(ParseJson("\"abc\"")->str, "abc");
}

TEST(JsonParseTest, ParsesNestedDocument) {
  auto doc = ParseJson(R"({"a": [1, 2, {"b": "c"}], "d": {"e": true}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[2].Find("b")->str, "c");
  EXPECT_TRUE(doc->Find("d")->Find("e")->boolean);
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonParseTest, DecodesStringEscapes) {
  auto doc = ParseJson(R"("a\n\t\"\\\u0041\u00e9")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->str, "a\n\t\"\\A\xc3\xa9");
}

TEST(JsonParseTest, DecodesSurrogatePairs) {
  auto doc = ParseJson(R"("\ud83d\ude00")");  // 😀 U+1F600
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->str, "\xf0\x9f\x98\x80");
}

TEST(JsonParseTest, PreservesObjectOrderAndDuplicateLookupIsLast) {
  auto doc = ParseJson(R"({"z": 1, "a": 2, "z": 3})");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->object.size(), 3u);
  EXPECT_EQ(doc->object[0].first, "z");
  EXPECT_EQ(doc->object[1].first, "a");
  EXPECT_DOUBLE_EQ(doc->Find("z")->number, 3.0);
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());  // Trailing garbage.
  EXPECT_FALSE(ParseJson("\"bad \\q escape\"").ok());
}

TEST(JsonParseTest, ErrorsCarryByteOffsets) {
  auto doc = ParseJson("[1, x]");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("offset 4"), std::string::npos)
      << doc.status().message();
}

TEST(JsonParseTest, DepthCapStopsRunawayNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonParseTest, RoundTripsEscapedStrings) {
  const std::string raw = "tab\there \"quoted\" back\\slash \x01";
  auto doc = ParseJson(std::string("\"").append(JsonEscape(raw)).append("\""));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->str, raw);
}

TEST(JsonParseTest, ConfigurableDepthLimit) {
  JsonParseOptions options;
  options.max_depth = 4;
  EXPECT_TRUE(ParseJson("[[[[1]]]]", options).ok());
  EXPECT_FALSE(ParseJson("[[[[[1]]]]]", options).ok());
  // The default remains the historical 256.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_TRUE(ParseJson(deep).ok());
}

TEST(JsonParseTest, DuplicateKeysRejectedOnRequest) {
  const std::string doc = "{\"a\": 1, \"b\": 2, \"a\": 3}";
  // Default: last value wins (historical behavior).
  auto lax = ParseJson(doc);
  ASSERT_TRUE(lax.ok());
  EXPECT_DOUBLE_EQ(lax->Find("a")->number, 3.0);

  JsonParseOptions options;
  options.reject_duplicate_keys = true;
  JsonParseError error;
  auto strict = ParseJson(doc, options, &error);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(error.what.find("duplicate key \"a\""), std::string::npos) << error.what;
  EXPECT_EQ(error.offset, doc.find("\"a\": 3"));
}

TEST(JsonParseTest, StructuredErrorSinkMatchesStatusText) {
  JsonParseError error;
  auto doc = ParseJson("[1, x]", JsonParseOptions{}, &error);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(error.offset, 4u);
  EXPECT_NE(doc.status().message().find(error.what), std::string::npos);
}

TEST(JsonParseTest, ValuesCarryOffsets) {
  const std::string text = "{\n  \"a\": [1, 2],\n  \"b\": \"x\"\n}";
  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(text[a->offset], '[');
  EXPECT_EQ(a->key_offset, text.find("\"a\""));
  const JsonValue* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  LineCol at = OffsetToLineCol(text, b->key_offset);
  EXPECT_EQ(at.line, 3);
  EXPECT_EQ(at.col, 3);
}

TEST(JsonParseTest, OffsetToLineColCountsNewlines) {
  const std::string text = "ab\ncd\nef";
  EXPECT_EQ(OffsetToLineCol(text, 0).line, 1);
  EXPECT_EQ(OffsetToLineCol(text, 0).col, 1);
  EXPECT_EQ(OffsetToLineCol(text, 4).line, 2);
  EXPECT_EQ(OffsetToLineCol(text, 4).col, 2);
  EXPECT_EQ(OffsetToLineCol(text, 6).line, 3);
  EXPECT_EQ(OffsetToLineCol(text, 6).col, 1);
  // Past-the-end offsets clamp instead of reading out of bounds.
  EXPECT_EQ(OffsetToLineCol(text, 999).line, 3);
}

TEST(JsonParseTest, Utf8EscapeRoundTrip) {
  // é (é), 中 (中), and a surrogate pair (😀) decode to UTF-8...
  auto doc = ParseJson("\"\\u00e9 \\u4e2d \\ud83d\\ude00\"");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->str, "\xC3\xA9 \xE4\xB8\xAD \xF0\x9F\x98\x80");
  // ...and non-ASCII bytes pass through JsonEscape untouched, so the
  // decoded string re-embeds and re-parses to itself.
  auto again = ParseJson(std::string("\"").append(JsonEscape(doc->str)).append("\""));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->str, doc->str);
}

}  // namespace
}  // namespace lupine
