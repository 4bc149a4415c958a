// Admission control for the query service.
//
// The server bounds the number of requests it will hold at once (queued on
// the thread pool or executing).  A request arriving past the bound is shed
// immediately with the protocol's retriable "retry" status instead of
// growing an unbounded backlog -- under overload, fast rejection preserves
// the latency of the work already admitted, and clients own the retry
// policy (tools/itdb_client.py backs off and resends).
//
// Admission also grades queries by cost.  The grade is CERTIFIED where
// possible: the abstract interpreter (analysis/absint.h) proves an upper
// bound on result cardinality and period lcm, and a query whose certified
// bounds exceed the analyzer's thresholds -- or whose certificate is
// unbounded AND the A010/A012 heuristics fire -- gets the "heavy" class.
// Certified grading beats the old heuristic-only grading in both
// directions: a certified-small query stays normal even when the
// heuristics panic, and a certified-huge query grades heavy even when the
// heuristics saw nothing.  Heavy queries occupy a separate, smaller
// admission budget (max_pending_heavy) so a burst of worst-case-exponential
// work cannot hold every worker while cheap queries shed behind it, and
// the session maps the class to divided tuple/split budgets and a shorter
// deadline.  The server applies the total gate before any work; the session
// (server/session.h) grades a statement from its one analysis after the
// result-cache lookup and applies the heavy gate there.

#ifndef ITDB_SERVER_ADMISSION_H_
#define ITDB_SERVER_ADMISSION_H_

#include <atomic>
#include <cstdint>

#include "analysis/analyzer.h"

namespace itdb {
namespace server {

/// The admission-relevant grade of a query.
enum class CostClass {
  kNormal,
  /// Worst-case exponential work: certified bounds above the analyzer's
  /// thresholds, or an unbounded certificate with the A010
  /// (NP-complete-regime complement) / A012 (period-blowup) heuristics
  /// firing.
  kHeavy,
};

struct AdmissionOptions {
  /// Maximum requests admitted at once (queued + executing).  0 sheds
  /// everything -- useful for drain mode and for deterministic shedding
  /// tests.
  std::int64_t max_pending = 64;
  /// Maximum heavy-class requests admitted at once; heavy arrivals past
  /// this shed even while normal capacity remains.  Defaults to the
  /// max_pending default so an unconfigured queue behaves exactly as
  /// before the class existed.
  std::int64_t max_pending_heavy = 64;
};

/// A bounded admission gate.  Lock-free; safe from any thread.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionOptions& options)
      : options_(options) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Tries to admit one request against the total bound.  On success the
  /// caller owes one Release() when the request finishes; on failure the
  /// request was shed (the shed counter and the server.shed metric
  /// advance).
  bool TryAdmit();

  /// Also admits an admitted request against the heavy bound once its
  /// grade is known -- the session grades AFTER total admission and after
  /// its result-cache lookup, so shedding under overload never pays for
  /// analysis and a cache hit never pays for grading.  On success the
  /// caller owes DemoteFromHeavy() before its Release(); on failure the
  /// request was shed as heavy and still owes its Release().
  bool PromoteToHeavy();

  /// Gives back the heavy slot of a successful PromoteToHeavy.
  void DemoteFromHeavy();

  void Release();

  /// Requests currently admitted (queued + executing).
  std::int64_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }
  std::int64_t pending_heavy() const {
    return pending_heavy_.load(std::memory_order_relaxed);
  }
  std::int64_t shed_total() const {
    return shed_.load(std::memory_order_relaxed);
  }
  std::int64_t shed_heavy_total() const {
    return shed_heavy_.load(std::memory_order_relaxed);
  }
  std::int64_t admitted_total() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  std::atomic<std::int64_t> pending_{0};
  std::atomic<std::int64_t> pending_heavy_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> shed_heavy_{0};
  std::atomic<std::int64_t> admitted_{0};
};

/// A statement's cost grade together with the certificate that justified
/// it.
struct CostGrade {
  CostClass cls = CostClass::kNormal;
  /// The root certificate of the grading analysis (top when analysis had
  /// errors or the certificate pass was off).  An unbounded root
  /// certificate also makes the query ineligible for the result cache: a
  /// result whose size the analysis cannot bound must not displace
  /// certified-small entries.
  analysis::Certificate root_certificate;
};

/// Grades a statement from its analysis (query::Prepared::Analyze -- the
/// one analysis a statement gets).  Pure: the grade comes from the root
/// certificate when it is bounded, against the analyzer's own thresholds
/// (A014's analysis::kCertifiedRowsThreshold, A012's
/// analysis::kPeriodBlowupThreshold), falling back to the A010/A012
/// heuristics when it is not.  An analysis with errors grades kNormal with
/// a top certificate -- evaluation will report the real error with its own
/// diagnostics.
CostGrade GradeAnalysis(const analysis::AnalysisResult& result);

}  // namespace server
}  // namespace itdb

#endif  // ITDB_SERVER_ADMISSION_H_
