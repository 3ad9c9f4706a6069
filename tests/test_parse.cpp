// parse_uint (common/parse.h): plain decimal digits that fit the type, and
// nothing else. The C readers it replaced took a sign and wrapped.
#include "common/parse.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace asyncgossip {
namespace {

TEST(ParseUint, AcceptsPlainDigitsThatFit) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_uint("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_uint("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  std::uint32_t id = 0;
  EXPECT_TRUE(parse_uint("4294967295", &id));
  EXPECT_EQ(id, UINT32_MAX);
}

TEST(ParseUint, RejectsSignsWhitespaceTailsAndOverflow) {
  std::uint64_t v = 7;
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.0",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_uint(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "a rejected read must leave the target alone";
  }
  std::uint32_t id = 7;
  EXPECT_FALSE(parse_uint("4294967296", &id));
  EXPECT_FALSE(parse_uint("-4294967295", &id));
  EXPECT_EQ(id, 7u);
}

}  // namespace
}  // namespace asyncgossip
