#include "support/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace dhtlb::support {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("DHTLB_TEST_VAR");
    ::unsetenv("DHTLB_TRIALS");
    ::unsetenv("DHTLB_SEED");
    ::unsetenv("DHTLB_THREADS");
  }
};

TEST_F(EnvTest, UnsetUsesFallback) {
  EXPECT_EQ(env_u64("DHTLB_TEST_VAR", 17), 17u);
}

TEST_F(EnvTest, SetValueIsParsed) {
  ::setenv("DHTLB_TEST_VAR", "12345", 1);
  EXPECT_EQ(env_u64("DHTLB_TEST_VAR", 17), 12345u);
}

TEST_F(EnvTest, GarbageIsRejectedAndEmptyFallsBack) {
  ::setenv("DHTLB_TEST_VAR", "", 1);
  EXPECT_EQ(env_u64("DHTLB_TEST_VAR", 17), 17u);
  // Everything else must be a whole unsigned decimal: the same rule as
  // the drivers' integer flags.
  for (const char* bad : {"not-a-number", "12abc", "-1", "+5", " 5", "5 ",
                          "99999999999999999999"}) {
    ::setenv("DHTLB_TEST_VAR", bad, 1);
    EXPECT_THROW(env_u64("DHTLB_TEST_VAR", 17), std::invalid_argument)
        << "'" << bad << "'";
  }
  ::setenv("DHTLB_TEST_VAR", "18446744073709551615", 1);  // 2^64 - 1
  EXPECT_EQ(env_u64("DHTLB_TEST_VAR", 17), 18446744073709551615u);
}

TEST_F(EnvTest, NegativeSeedIsRejected) {
  // strtoull alone wrapped this to seed 2^64 - 1.
  ::setenv("DHTLB_SEED", "-1", 1);
  EXPECT_THROW(env_seed(), std::invalid_argument);
}

TEST_F(EnvTest, ThreadCountsAreRejectedBeforeAnyPoolIsBuilt) {
  // Only the parse is exercised: env_threads() throws before a caller
  // could construct a ThreadPool of that size.
  ::setenv("DHTLB_THREADS", "-1", 1);
  EXPECT_THROW(env_threads(), std::invalid_argument);
  ::setenv("DHTLB_THREADS", std::to_string(kMaxEnvThreads + 1).c_str(), 1);
  EXPECT_THROW(env_threads(), std::invalid_argument);
  ::setenv("DHTLB_THREADS", std::to_string(kMaxEnvThreads).c_str(), 1);
  EXPECT_EQ(env_threads(), kMaxEnvThreads);
}

TEST_F(EnvTest, TrialsOverride) {
  EXPECT_EQ(env_trials(100), 100u);
  ::setenv("DHTLB_TRIALS", "5", 1);
  EXPECT_EQ(env_trials(100), 5u);
  ::setenv("DHTLB_TRIALS", "0", 1);
  EXPECT_EQ(env_trials(100), 100u) << "0 means use the default";
}

TEST_F(EnvTest, SeedDefaultAndOverride) {
  EXPECT_EQ(env_seed(), 0x5EEDBA5EULL);
  ::setenv("DHTLB_SEED", "42", 1);
  EXPECT_EQ(env_seed(), 42u);
}

TEST_F(EnvTest, ThreadsDefaultIsZero) {
  EXPECT_EQ(env_threads(), 0u);
  ::setenv("DHTLB_THREADS", "3", 1);
  EXPECT_EQ(env_threads(), 3u);
}

}  // namespace
}  // namespace dhtlb::support
