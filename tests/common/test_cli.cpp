#include "common/cli.hpp"

#include <gtest/gtest.h>

namespace mdgan {
namespace {

CliFlags parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CliFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(CliFlags, ParsesEqualsForm) {
  auto f = parse({"--iters=500", "--name=md-gan"});
  EXPECT_EQ(f.get_int("iters", 0), 500);
  EXPECT_EQ(f.get("name", ""), "md-gan");
}

TEST(CliFlags, ParsesSpaceForm) {
  auto f = parse({"--iters", "500"});
  EXPECT_EQ(f.get_int("iters", 0), 500);
}

TEST(CliFlags, BareFlagIsBooleanTrue) {
  auto f = parse({"--full"});
  EXPECT_TRUE(f.get_bool("full"));
  EXPECT_TRUE(f.has("full"));
}

TEST(CliFlags, DefaultsWhenMissing) {
  auto f = parse({});
  EXPECT_EQ(f.get_int("iters", 123), 123);
  EXPECT_EQ(f.get("name", "x"), "x");
  EXPECT_FALSE(f.get_bool("full"));
  EXPECT_DOUBLE_EQ(f.get_double("lr", 0.5), 0.5);
}

TEST(CliFlags, ParsesDoubles) {
  auto f = parse({"--lr=0.0002"});
  EXPECT_DOUBLE_EQ(f.get_double("lr", 0), 0.0002);
}

TEST(CliFlags, CollectsPositional) {
  auto f = parse({"alpha", "--k=2", "beta"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "alpha");
  EXPECT_EQ(f.positional()[1], "beta");
}

TEST(CliFlags, NegativeNumbersAsValues) {
  auto f = parse({"--offset=-5"});
  EXPECT_EQ(f.get_int("offset", 0), -5);
}

TEST(CliFlags, UnknownListsFlagsOutsideTheKnownSet) {
  auto f = parse({"--role=sim", "--arch=cnn-mnist", "--iters", "3",
                  "--verbose", "pos"});
  EXPECT_EQ(f.unknown({"role", "iters"}),
            (std::vector<std::string>{"arch", "verbose"}));
  EXPECT_TRUE(f.unknown({"role", "iters", "arch", "verbose"}).empty());
  EXPECT_TRUE(parse({"pos"}).unknown({}).empty());  // positionals pass
}

}  // namespace
}  // namespace mdgan
