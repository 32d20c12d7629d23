// Kernel dispatch with a retired backend name. "blocked" is no longer a
// backend: it must parse as unknown, and BSUB_KERNEL=blocked must be
// reported and fall back to default dispatch (the widest available
// backend).
//
// This test has its own binary because dispatch resolves once per process,
// on the first active() call — which this test must be the one to make.
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "bloom/kernels.h"

namespace kernels = bsub::bloom::kernels;

namespace {

TEST(KernelDispatch, RetiredBlockedNameFallsBackToDefaultDispatch) {
  EXPECT_FALSE(kernels::parse_kind("blocked").has_value());

  ASSERT_EQ(setenv("BSUB_KERNEL", "blocked", /*overwrite=*/1), 0);
  ::testing::internal::CaptureStderr();
  const kernels::Kind active = kernels::active_kind();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown BSUB_KERNEL=blocked"), std::string::npos)
      << "stderr: " << err;

  kernels::Kind widest = kernels::Kind::kScalar;
  for (kernels::Kind k : {kernels::Kind::kAvx2, kernels::Kind::kNeon}) {
    if (kernels::available(k)) {
      widest = k;
      break;
    }
  }
  EXPECT_EQ(active, widest);
}

}  // namespace
