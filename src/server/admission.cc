#include "server/admission.h"

#include "obs/metrics.h"
#include "util/diagnostic.h"

namespace itdb {
namespace server {

namespace {

/// The pre-certificate grading: heavy iff the cost pass guessed an
/// NP-regime complement (A010) or a period blowup (A012).  Kept as the
/// fallback for queries whose certificate is unbounded -- exactly the
/// queries the guesses were invented for.
CostClass ClassifyHeuristic(const analysis::AnalysisResult& result) {
  for (const Diagnostic& d : result.diagnostics) {
    if (d.code == diag::kExpensiveComplement || d.code == diag::kPeriodBlowup) {
      return CostClass::kHeavy;
    }
  }
  return CostClass::kNormal;
}

}  // namespace

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

bool AdmissionQueue::PromoteToHeavy() {
  std::int64_t now = pending_heavy_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (now > options_.max_pending_heavy) {
    pending_heavy_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_heavy_.fetch_add(1, std::memory_order_relaxed);
    obs::AddGlobalCounter("server.shed", 1);
    obs::AddGlobalCounter("server.shed_heavy", 1);
    return false;
  }
  return true;
}

void AdmissionQueue::DemoteFromHeavy() {
  pending_heavy_.fetch_sub(1, std::memory_order_relaxed);
}

void AdmissionQueue::Release() {
  pending_.fetch_sub(1, std::memory_order_relaxed);
}

CostGrade GradeAnalysis(const analysis::AnalysisResult& result) {
  CostGrade grade;
  if (result.HasErrors()) return grade;
  grade.root_certificate = result.root_certificate;
  if (grade.root_certificate.bounded()) {
    // Certified grading: the sound bounds replace the guesses in both
    // directions.  The thresholds are the analyzer's own (A014 / A012).
    const bool huge =
        *grade.root_certificate.rows > analysis::kCertifiedRowsThreshold ||
        *grade.root_certificate.lcm > analysis::kPeriodBlowupThreshold;
    grade.cls = huge ? CostClass::kHeavy : CostClass::kNormal;
    return grade;
  }
  grade.cls = ClassifyHeuristic(result);
  return grade;
}

}  // namespace server
}  // namespace itdb
