// Admission control for the query service.
//
// The server bounds the number of requests it will hold at once (queued on
// the thread pool or executing).  A request arriving past the bound is shed
// immediately with the protocol's retriable "retry" status instead of
// growing an unbounded backlog -- under overload, fast rejection preserves
// the latency of the work already admitted, and clients own the retry
// policy (tools/itdb_client.py backs off and resends).
//
// This one total gate is the whole of admission.  The cost of an admitted
// statement is bounded by the session's tuple budget, split budget and
// deadline (server/session.h), which hold for every statement alike.

#ifndef ITDB_SERVER_ADMISSION_H_
#define ITDB_SERVER_ADMISSION_H_

#include <atomic>
#include <cstdint>

namespace itdb {
namespace server {

struct AdmissionOptions {
  /// Maximum requests admitted at once (queued + executing).  0 sheds
  /// everything -- useful for drain mode and for deterministic shedding
  /// tests.
  std::int64_t max_pending = 64;
};

/// A bounded admission gate.  Lock-free; safe from any thread.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionOptions& options)
      : options_(options) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Tries to admit one request against the bound.  On success the caller
  /// owes one Release() when the request finishes; on failure the request
  /// was shed (the shed counter and the server.shed metric advance).
  bool TryAdmit();

  void Release();

  /// Requests currently admitted (queued + executing).
  std::int64_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }
  std::int64_t shed_total() const {
    return shed_.load(std::memory_order_relaxed);
  }
  std::int64_t admitted_total() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  std::atomic<std::int64_t> pending_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> admitted_{0};
};

}  // namespace server
}  // namespace itdb

#endif  // ITDB_SERVER_ADMISSION_H_
