// Tests for the dependency-free JSON layer: parsing, serialization,
// round-trips, escapes, numbers, raw (already-serialized) values, and
// error reporting.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <type_traits>

#include "io/json.h"

namespace mecra::io {
namespace {

// ---------------------------------------------------------------- values

TEST(Json, ScalarTypesAndAccessors) {
  EXPECT_TRUE(Json(nullptr).is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_FALSE(Json(false).as_bool());
  EXPECT_DOUBLE_EQ(Json(2.5).as_double(), 2.5);
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_EQ(Json(std::string("hi")).as_string(), "hi");
  EXPECT_EQ(Json("chars").as_string(), "chars");
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW((void)Json(1.5).as_string(), util::CheckFailure);
  EXPECT_THROW((void)Json("x").as_double(), util::CheckFailure);
  EXPECT_THROW((void)Json(1.5).as_int(), util::CheckFailure);  // not integral
}

TEST(Json, ObjectPreservesInsertionOrder) {
  JsonObject obj;
  obj.set("zulu", Json(1));
  obj.set("alpha", Json(2));
  obj.set("mike", Json(3));
  EXPECT_EQ(obj.keys(), (std::vector<std::string>{"zulu", "alpha", "mike"}));
  obj.set("alpha", Json(9));  // overwrite keeps position
  EXPECT_EQ(obj.keys().size(), 3u);
  EXPECT_EQ(obj.at("alpha").as_int(), 9);
  EXPECT_FALSE(obj.contains("nope"));
  EXPECT_THROW((void)obj.at("nope"), util::CheckFailure);
}

TEST(Json, DuplicateKeyKeepsFirstPositionAndTakesLastValue) {
  JsonObject obj;
  obj.set("a", Json(1));
  obj.set("b", Json(2));
  obj.set("a", Json(3));
  EXPECT_EQ(obj.keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(obj.at("a").as_int(), 3);
  EXPECT_EQ(Json(std::move(obj)).dump(), R"({"a":3,"b":2})");

  // The parser follows the same rule.
  const Json parsed = Json::parse(R"({"x":1,"y":2,"x":"last"})");
  EXPECT_EQ(parsed.as_object().keys(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(parsed.as_object().at("x").as_string(), "last");
  EXPECT_EQ(parsed.dump(), R"({"x":"last","y":2})");
}

TEST(Json, AtOnAMissingKeyThrows) {
  const Json parsed = Json::parse(R"({"present":true})");
  EXPECT_TRUE(parsed.as_object().contains("present"));
  EXPECT_FALSE(parsed.as_object().contains("absent"));
  EXPECT_THROW((void)parsed.as_object().at("absent"), util::CheckFailure);
  EXPECT_THROW((void)JsonObject{}.at(""), util::CheckFailure);
}

TEST(Json, ThousandKeyObjectRoundTripsInInsertionOrder) {
  JsonObject obj;
  std::vector<std::string> keys;
  for (int i = 999; i >= 0; --i) {  // descending: not sorted order
    std::string key = "k";
    key += std::to_string(i);
    obj.set(key, Json(i));
    keys.push_back(std::move(key));
  }
  const Json original(std::move(obj));
  const Json reparsed = Json::parse(original.dump());
  EXPECT_EQ(reparsed.as_object().keys(), keys);
  EXPECT_EQ(reparsed.dump(), original.dump());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(reparsed.as_object().at(keys[i]).as_int(),
              static_cast<std::int64_t>(999 - i));
  }
}

TEST(Json, IsMoveOnly) {
  static_assert(!std::is_copy_constructible_v<Json>);
  static_assert(!std::is_copy_assignable_v<Json>);
  static_assert(std::is_nothrow_move_constructible_v<Json>);
  JsonObject obj;
  obj.set("k", Json("v"));
  Json a(std::move(obj));
  Json b = std::move(a);
  EXPECT_EQ(b.as_object().at("k").as_string(), "v");
}

// ------------------------------------------------------------------ dump

TEST(Json, CompactDump) {
  JsonObject obj;
  obj.set("a", Json(1));
  JsonArray arr;
  arr.emplace_back(true);
  arr.emplace_back(nullptr);
  obj.set("b", Json(std::move(arr)));
  EXPECT_EQ(Json(std::move(obj)).dump(), R"({"a":1,"b":[true,null]})");
}

TEST(Json, PrettyDumpIndents) {
  JsonObject obj;
  obj.set("k", Json(1));
  const std::string out = Json(std::move(obj)).dump(2);
  EXPECT_NE(out.find("{\n  \"k\": 1\n}"), std::string::npos);
}

TEST(Json, DumpEscapesSpecials) {
  EXPECT_EQ(Json("a\"b\\c\nd\te").dump(), R"("a\"b\\c\nd\te")");
  EXPECT_EQ(Json(std::string("\x01")).dump(), "\"\\u0001\"");
}

TEST(Json, NumbersDumpCleanly) {
  EXPECT_EQ(Json(3).dump(), "3");
  EXPECT_EQ(Json(-17).dump(), "-17");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json(1e100).dump(), "1e+100");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json(JsonArray{}).dump(2), "[]");
  EXPECT_EQ(Json(JsonObject{}).dump(2), "{}");
}

// ------------------------------------------------------------------- raw

TEST(JsonRaw, DumpsVerbatimAloneAndInsideArraysAndObjects) {
  const std::string text = R"({"a":[1,2.5,"x\n"],"b":{}})";
  EXPECT_EQ(Json::raw(text).dump(), text);
  std::string out = "prefix:";
  Json::raw(text).dump_append(out);
  EXPECT_EQ(out, "prefix:" + text);

  JsonArray arr(3);
  arr[0] = Json::raw("[true,null]");
  arr[1] = Json(3);
  arr[2] = Json::raw("{}");
  JsonObject obj;
  obj.set("raw", Json::raw(text));
  obj.set("list", Json(std::move(arr)));
  obj.set("tail", Json::raw("-0"));
  const Json tree(std::move(obj));
  const std::string want =
      R"({"raw":{"a":[1,2.5,"x\n"],"b":{}},)"
      R"("list":[[true,null],3,{}],"tail":-0})";
  EXPECT_EQ(tree.dump(), want);
  out.clear();
  tree.dump_append(out);
  EXPECT_EQ(out, want);
}

TEST(JsonRaw, EveryAccessorRejectsIt) {
  // Valid number text, yet not a number value: a raw value is opaque.
  const Json v = Json::raw("1");
  EXPECT_FALSE(v.is_null());
  EXPECT_FALSE(v.is_bool());
  EXPECT_FALSE(v.is_number());
  EXPECT_FALSE(v.is_string());
  EXPECT_FALSE(v.is_array());
  EXPECT_FALSE(v.is_object());
  EXPECT_THROW((void)v.as_bool(), util::CheckFailure);
  EXPECT_THROW((void)v.as_double(), util::CheckFailure);
  EXPECT_THROW((void)v.as_int(), util::CheckFailure);
  EXPECT_THROW((void)v.as_string(), util::CheckFailure);
  EXPECT_THROW((void)v.as_array(), util::CheckFailure);
  EXPECT_THROW((void)v.as_object(), util::CheckFailure);
}

TEST(JsonRaw, PrettyPrintingLeavesItCompact) {
  // indent >= 0 indents the tree around a raw value but copies the value
  // itself verbatim, compact as it is.
  EXPECT_EQ(Json::raw(R"({"x":[1,2]})").dump(2), R"({"x":[1,2]})");
  JsonObject obj;
  obj.set("k", Json(1));
  obj.set("r", Json::raw(R"({"x":[1,2]})"));
  EXPECT_EQ(Json(std::move(obj)).dump(2),
            "{\n  \"k\": 1,\n  \"r\": {\"x\":[1,2]}\n}");
  JsonArray arr(1);
  arr[0] = Json::raw("[]");
  EXPECT_EQ(Json(std::move(arr)).dump(0), "[\n[]\n]");
}

TEST(JsonRaw, ParseNeverProducesIt) {
  const std::string text = R"({"a":[1,{"b":null}],"c":"d"})";
  const Json parsed = Json::parse(Json::raw(text).dump());
  EXPECT_TRUE(parsed.is_object());
  EXPECT_TRUE(parsed.as_object().at("a").is_array());
  EXPECT_EQ(parsed.dump(), text);
}

// ----------------------------------------------------------------- parse

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse(" false ").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-2.75e2").as_double(), -275.0);
  EXPECT_EQ(Json::parse(R"("text")").as_string(), "text");
}

TEST(JsonParse, NestedStructures) {
  const auto v = Json::parse(R"({"a": [1, {"b": "c"}, null], "d": true})");
  const auto& obj = v.as_object();
  const auto& arr = obj.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[0].as_int(), 1);
  EXPECT_EQ(arr[1].as_object().at("b").as_string(), "c");
  EXPECT_TRUE(arr[2].is_null());
  EXPECT_TRUE(obj.at("d").as_bool());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"\\\n\tA")").as_string(), "a\"\\\n\tA");
  // Unicode escape beyond ASCII becomes UTF-8.
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");
}

TEST(JsonParse, Errors) {
  EXPECT_THROW((void)Json::parse(""), util::CheckFailure);
  EXPECT_THROW((void)Json::parse("{"), util::CheckFailure);
  EXPECT_THROW((void)Json::parse("[1,]"), util::CheckFailure);
  EXPECT_THROW((void)Json::parse("tru"), util::CheckFailure);
  EXPECT_THROW((void)Json::parse("1 2"), util::CheckFailure);
  EXPECT_THROW((void)Json::parse("\"unterminated"), util::CheckFailure);
  EXPECT_THROW((void)Json::parse("{\"a\" 1}"), util::CheckFailure);
  EXPECT_THROW((void)Json::parse("nan"), util::CheckFailure);
}

TEST(JsonParse, StringViewStopsAtTheViewsEnd) {
  const std::string buffer = R"([1,{"a":2}]trailing)";
  const std::string_view json = std::string_view(buffer).substr(0, 11);
  EXPECT_EQ(Json::parse(json).dump(), R"([1,{"a":2}])");
  // Trailing characters inside the view are still refused.
  EXPECT_THROW((void)Json::parse(std::string_view(buffer).substr(0, 12)),
               util::CheckFailure);
  // A view that cuts a value short is an error, not a read past its end.
  EXPECT_THROW((void)Json::parse(std::string_view(buffer).substr(0, 8)),
               util::CheckFailure);
  const std::string number = "12345";
  EXPECT_EQ(Json::parse(std::string_view(number).substr(0, 2)).as_int(), 12);
}

TEST(JsonParse, ErrorsCarryOffsets) {
  try {
    (void)Json::parse("[1, oops]");
    FAIL();
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

// ------------------------------------------------------------ round trip

TEST(Json, RoundTripPreservesStructureAndValues) {
  JsonObject inner;
  inner.set("pi", Json(3.141592653589793));
  inner.set("name", Json("mecra \"quoted\" \n"));
  JsonArray arr;
  arr.emplace_back(std::move(inner));
  arr.emplace_back(false);
  arr.emplace_back(-1234567);
  JsonObject root;
  root.set("payload", Json(std::move(arr)));
  root.set("version", Json(1));

  const Json original(std::move(root));
  for (int indent : {-1, 0, 2, 4}) {
    const Json reparsed = Json::parse(original.dump(indent));
    EXPECT_EQ(reparsed.dump(), original.dump()) << "indent " << indent;
    EXPECT_DOUBLE_EQ(
        reparsed.as_object().at("payload").as_array()[0].as_object()
            .at("pi").as_double(),
        3.141592653589793);
  }
}

}  // namespace
}  // namespace mecra::io

// Appended: deep nesting survives parse/dump cycles.
namespace mecra::io {
namespace {

TEST(Json, DeepNestingRoundTrips) {
  std::string text = "1";
  for (int i = 0; i < 60; ++i) text = "[" + text + "]";
  const Json v = Json::parse(text);
  EXPECT_EQ(v.dump(), text);
  const Json* cur = &v;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cur->is_array());
    cur = &cur->as_array()[0];
  }
  EXPECT_EQ(cur->as_int(), 1);
}

}  // namespace
}  // namespace mecra::io
