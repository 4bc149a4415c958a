#include "server/admission.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace itdb {
namespace server {
namespace {

TEST(AdmissionQueueTest, AdmitsUpToBoundThenSheds) {
  AdmissionOptions options;
  options.max_pending = 2;
  AdmissionQueue queue(options);
  EXPECT_TRUE(queue.TryAdmit());
  EXPECT_TRUE(queue.TryAdmit());
  EXPECT_EQ(queue.pending(), 2);
  EXPECT_FALSE(queue.TryAdmit());
  EXPECT_EQ(queue.shed_total(), 1);
  EXPECT_EQ(queue.pending(), 2);  // The shed request holds no slot.
  queue.Release();
  EXPECT_TRUE(queue.TryAdmit());
  EXPECT_EQ(queue.admitted_total(), 3);
}

TEST(AdmissionQueueTest, ZeroBoundShedsEverything) {
  AdmissionOptions options;
  options.max_pending = 0;
  AdmissionQueue queue(options);
  const std::int64_t shed_before =
      obs::MetricsRegistry::Global().snapshot().counters["server.shed"];
  EXPECT_FALSE(queue.TryAdmit());
  EXPECT_FALSE(queue.TryAdmit());
  EXPECT_EQ(queue.shed_total(), 2);
  EXPECT_EQ(queue.admitted_total(), 0);
  const std::int64_t shed_after =
      obs::MetricsRegistry::Global().snapshot().counters["server.shed"];
  EXPECT_EQ(shed_after - shed_before, 2);
}

}  // namespace
}  // namespace server
}  // namespace itdb
