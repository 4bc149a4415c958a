#include "server/admission.h"

#include "obs/metrics.h"

namespace itdb {
namespace server {

bool AdmissionQueue::TryAdmit() {
  std::int64_t now = pending_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (now > options_.max_pending) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
    obs::AddGlobalCounter("server.shed", 1);
    return false;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::Global()
      .GetCounter("server.queue_depth_max")
      ->RecordMax(now);
  return true;
}

void AdmissionQueue::Release() {
  pending_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace server
}  // namespace itdb
