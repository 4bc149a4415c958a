#include "host_speed.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common.h"

namespace e2e {
namespace {

// Keeps the reference task's result observable, so the optimizer cannot
// drop the work.
volatile std::int64_t g_sink = 0;

std::uint64_t XorShift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

struct Node {
  virtual ~Node() = default;
  virtual std::int64_t Eval() const = 0;
};

struct Leaf final : Node {
  explicit Leaf(std::int64_t v) : value(v) {}
  std::int64_t Eval() const override { return value; }
  std::int64_t value;
};

struct Sum final : Node {
  std::int64_t Eval() const override { return lhs->Eval() + rhs->Eval(); }
  std::unique_ptr<Node> lhs, rhs;
};

struct Product final : Node {
  std::int64_t Eval() const override {
    return lhs->Eval() * rhs->Eval() % 1000003;
  }
  std::unique_ptr<Node> lhs, rhs;
};

// A random expression tree of the given depth.
std::unique_ptr<Node> Build(std::uint64_t& x, int depth) {
  if (depth == 0) {
    return std::make_unique<Leaf>(static_cast<std::int64_t>(XorShift(x) % 100));
  }
  if (XorShift(x) % 2 == 0) {
    auto n = std::make_unique<Sum>();
    n->lhs = Build(x, depth - 1);
    n->rhs = Build(x, depth - 1);
    return n;
  }
  auto n = std::make_unique<Product>();
  n->lhs = Build(x, depth - 1);
  n->rhs = Build(x, depth - 1);
  return n;
}

// Mean of the middle half of `v` (sorted in place).
double InterquartileMean(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t quarter = v.size() / 4;
  double sum = 0;
  for (std::size_t i = quarter; i < v.size() - quarter; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * quarter);
}

}  // namespace

double ReferenceTaskMicros() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 17;
  std::int64_t sink = 0;
  for (int i = 0; i < 6; ++i) sink += Build(x, 9)->Eval();
  const double us = MicrosBetween(start, Clock::now());
  g_sink = sink;
  return us;
}

void HostSpeed::Sample(double t, int reps) {
  for (int i = 0; i < reps; ++i) {
    t_.push_back(t);
    us_.push_back(ReferenceTaskMicros());
  }
}

double HostSpeed::Slowdown(double from, double to) const {
  std::vector<double> in;
  for (std::size_t i = 0; i < t_.size(); ++i) {
    if (t_[i] >= from && t_[i] < to) in.push_back(us_[i]);
  }
  if (in.empty()) in = us_;
  if (in.empty()) Die("host speed was never sampled");
  return InterquartileMean(in) / kReferenceNominalUs;
}

std::vector<double> HostSpeed::Windows(double span, int windows) const {
  std::vector<double> out;
  for (int k = 0; k < windows; ++k) {
    out.push_back(Slowdown(span * k / windows, span * (k + 1) / windows));
  }
  return out;
}

double HostSpeed::MedianMicros() const { return Median(us_); }

}  // namespace e2e
