// The §5.1 client-profiling tests: the black-box profiler must recover the
// Table 3 parameters of every client from add() outcomes alone.

#include <gtest/gtest.h>

#include "core/profiler.h"

namespace topo::core {
namespace {

using mempool::ClientKind;

struct Expected {
  ClientKind kind;
  double bump;
  uint64_t u;
  bool u_unbounded;
  size_t p;
  size_t l;
  bool measurable;
};

class ProfilerTable3 : public ::testing::TestWithParam<Expected> {};

TEST_P(ProfilerTable3, RecoversPaperParameters) {
  const Expected& e = GetParam();
  ClientProfiler profiler;
  const auto est = profiler.profile(e.kind);
  EXPECT_NEAR(est.replace_bump_fraction, e.bump, 1e-5);
  EXPECT_EQ(est.futures_unbounded, e.u_unbounded);
  if (!e.u_unbounded) {
    EXPECT_EQ(est.max_futures_per_account, e.u);
  }
  EXPECT_EQ(est.min_pending_for_eviction, e.p);
  EXPECT_EQ(est.capacity, e.l);
  EXPECT_EQ(est.measurable, e.measurable);
}

// gtest prints an Expected as its raw bytes, padding included, into the test
// name. A constant table keeps that padding zeroed, so the name is the same in
// every build (temporaries passed to ::testing::Values carry stack garbage).
constexpr Expected kTable3[] = {
    {ClientKind::kGeth, 0.10, 4096, false, 0, 5120, true},
    {ClientKind::kParity, 0.125, 81, false, 2000, 8192, true},
    {ClientKind::kNethermind, 0.0, 17, false, 0, 2048, false},
    {ClientKind::kBesu, 0.10, 0, true, 0, 4096, true},
    {ClientKind::kAleth, 0.0, 1, false, 0, 2048, false},
};

INSTANTIATE_TEST_SUITE_P(
    AllClients, ProfilerTable3, ::testing::ValuesIn(kTable3),
    [](const ::testing::TestParamInfo<Expected>& info) {
      return mempool::client_name(info.param.kind);
    });

TEST(Profiler, CustomPolicyRecovered) {
  mempool::MempoolPolicy p;
  p.replace_bump_bp = 555;  // 5.55%
  p.max_futures_per_account = 13;
  p.min_pending_for_eviction = 50;
  p.capacity = 300;
  p.future_cap = 100;
  ClientProfiler profiler(1 << 12);
  const auto est = profiler.profile(p);
  EXPECT_NEAR(est.replace_bump_fraction, 0.0555, 1e-4);
  EXPECT_EQ(est.max_futures_per_account, 13u);
  EXPECT_EQ(est.min_pending_for_eviction, 50u);
  EXPECT_EQ(est.capacity, 300u);
  EXPECT_TRUE(est.measurable);
}

}  // namespace
}  // namespace topo::core
