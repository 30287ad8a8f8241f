#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace g6::obs {
namespace {

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonValue, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonValue, ParsesNestedStructure) {
  const JsonValue v = JsonValue::parse(
      R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.at("a").items();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.0);
  EXPECT_EQ(a[2].at("b").as_string(), "x");
  EXPECT_TRUE(v.at("c").at("d").is_null());
}

TEST(JsonValue, ParsesStringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\nd")").as_string(), "a\"b\\c\nd");
  EXPECT_EQ(JsonValue::parse(R"("A")").as_string(), "A");
}

TEST(JsonValue, FindReturnsNullptrForMissingKey) {
  const JsonValue v = JsonValue::parse(R"({"x": 1})");
  EXPECT_NE(v.find("x"), nullptr);
  EXPECT_EQ(v.find("y"), nullptr);
  EXPECT_THROW(v.at("y"), std::runtime_error);
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("nul"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("1 trailing"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
}

TEST(JsonValue, TypeMismatchThrows) {
  const JsonValue v = JsonValue::parse("[1]");
  EXPECT_THROW(v.as_number(), std::runtime_error);
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.at("k"), std::runtime_error);
}

TEST(JsonValue, WriterEscapeRoundTrip) {
  const std::string raw = "name with \"quotes\", \\slashes\\ and \n newlines";
  const JsonValue v = JsonValue::parse("\"" + json_escape(raw) + "\"");
  EXPECT_EQ(v.as_string(), raw);
}

TEST(JsonNumber, SeventeenDigitsRoundTripBinary64) {
  EXPECT_EQ(json_number(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.33333333333333331");
  EXPECT_EQ(json_number(0.0625), "0.0625");
  EXPECT_EQ(json_number(-0.0), "-0");
  for (const double d : {0.1 + 0.2, 1.0 / 3.0, 1e-300, -2.5e17, 6.02e23}) {
    EXPECT_EQ(JsonValue::parse(json_number(d)).as_number(), d);
  }
}

class ReaderError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void reader_fail(const std::string& what) {
  throw ReaderError(what);
}

std::string reader_message(const std::string& text,
                           void (*probe)(const JsonReader&)) {
  const JsonValue v = JsonValue::parse(text);
  try {
    probe(JsonReader(v, "doc", reader_fail));
  } catch (const ReaderError& e) {
    return e.what();
  }
  return "";
}

TEST(JsonReader, ChecksAllowedAndRequiredKeys) {
  EXPECT_EQ(reader_message("[1]", [](const JsonReader&) {}),
            "doc must be a JSON object");
  EXPECT_EQ(reader_message(R"({"a":1,"b":2})",
                           [](const JsonReader& r) { r.strict_keys({"a"}); }),
            "doc: unknown key 'b'");
  EXPECT_EQ(reader_message(R"({"a":1})",
                           [](const JsonReader& r) {
                             r.strict_keys({"a", "b"}, {"a", "b"});
                           }),
            "doc: missing required key 'b'");
  EXPECT_EQ(reader_message(R"({"a":1})",
                           [](const JsonReader& r) {
                             r.strict_keys({"a", "b"}, {"a"});
                           }),
            "");
}

TEST(JsonReader, TypedGettersRejectWrongTypes) {
  const JsonValue v =
      JsonValue::parse(R"({"s":"x","n":2.5,"b":true,"i":-3,"u":7})");
  const JsonReader r(v, "doc", reader_fail);
  EXPECT_EQ(r.get<std::string>("s"), "x");
  EXPECT_EQ(r.get<double>("n"), 2.5);
  EXPECT_TRUE(r.get<bool>("b"));
  EXPECT_EQ(r.get<int>("i"), -3);
  EXPECT_EQ(r.get<unsigned>("u"), 7u);
  EXPECT_EQ(r.get<std::size_t>("u"), 7u);
  EXPECT_THROW(r.get<std::string>("n"), ReaderError);
  EXPECT_THROW(r.get<double>("s"), ReaderError);
  EXPECT_THROW(r.get<bool>("u"), ReaderError);  // 1/0 is not a bool
  EXPECT_THROW(r.get<int>("missing"), ReaderError);

  int kept = 9;
  r.read("missing", &kept);
  EXPECT_EQ(kept, 9);
  r.read("i", &kept);
  EXPECT_EQ(kept, -3);
}

TEST(JsonReader, IntegersAreRangeCheckedBeforeTheCast) {
  const JsonValue v = JsonValue::parse(
      R"({"frac":1.5,"neg":-1,"huge":1e30,"tiny":-1e30,
          "u32max":4294967295,"u32over":4294967296,
          "i32min":-2147483648,"i32under":-2147483649,
          "u64top":18446744073709549568,"u64over":18446744073709551616})");
  const JsonReader r(v, "doc", reader_fail);
  EXPECT_THROW(r.get<std::uint64_t>("frac"), ReaderError);
  EXPECT_THROW(r.get<int>("frac"), ReaderError);
  EXPECT_THROW(r.get<std::size_t>("neg"), ReaderError);
  EXPECT_THROW(r.get<unsigned>("neg"), ReaderError);
  EXPECT_THROW(r.get<std::uint64_t>("huge"), ReaderError);
  EXPECT_THROW(r.get<int>("huge"), ReaderError);
  EXPECT_THROW(r.get<int>("tiny"), ReaderError);
  EXPECT_EQ(r.get<unsigned>("u32max"), 4294967295u);
  EXPECT_THROW(r.get<unsigned>("u32over"), ReaderError);
  EXPECT_EQ(r.get<int>("i32min"), -2147483647 - 1);
  EXPECT_THROW(r.get<int>("i32under"), ReaderError);
  EXPECT_EQ(r.get<std::uint64_t>("u64top"), 18446744073709549568ULL);
  EXPECT_THROW(r.get<std::uint64_t>("u64over"), ReaderError);
  EXPECT_EQ(reader_message(R"({"n":2.5})",
                           [](const JsonReader& rd) { rd.get<std::size_t>("n"); }),
            "doc: key 'n' must be a non-negative integer");
  EXPECT_EQ(reader_message(R"({"n":1e30})",
                           [](const JsonReader& rd) { rd.get<std::size_t>("n"); }),
            "doc: key 'n' is out of range for a 64-bit integer");
}

TEST(JsonReader, BareValuesUseTheSameChecks) {
  const JsonValue v = JsonValue::parse(R"({"list":[3,-2,2.5]})");
  const JsonReader r(v, "doc", reader_fail);
  const auto& items = r.at("list").items();
  EXPECT_EQ(r.as<int>(items[0], "list[0]"), 3);
  EXPECT_EQ(r.as<int>(items[1], "list[1]"), -2);
  EXPECT_THROW(r.as<int>(items[2], "list[2]"), ReaderError);
  EXPECT_THROW(r.as<unsigned>(items[1], "list[1]"), ReaderError);
}

}  // namespace
}  // namespace g6::obs
