#include "util/status.h"

#include <string>

#include <gtest/gtest.h>

namespace itdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad thing");
  EXPECT_EQ(Status::Overflow("x").code(), StatusCode::kOverflow);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

namespace macros {

Result<int> FailingResult() { return Status::Overflow("boom"); }
Result<int> OkResult() { return 5; }

Status UseReturnIfError(bool fail) {
  ITDB_RETURN_IF_ERROR(fail ? Status::ParseError("nope") : Status::Ok());
  return Status::Ok();
}

Status UseAssignOrReturn(bool fail, int* out) {
  ITDB_ASSIGN_OR_RETURN(int v, fail ? FailingResult() : OkResult());
  ITDB_ASSIGN_OR_RETURN(int w, OkResult());
  *out = v + w;
  return Status::Ok();
}

}  // namespace macros

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(macros::UseReturnIfError(false).ok());
  EXPECT_EQ(macros::UseReturnIfError(true).code(), StatusCode::kParseError);
}

TEST(StatusMacrosTest, AssignOrReturnPropagatesAndAssigns) {
  int out = 0;
  EXPECT_TRUE(macros::UseAssignOrReturn(false, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_EQ(macros::UseAssignOrReturn(true, &out).code(),
            StatusCode::kOverflow);
}

}  // namespace
}  // namespace itdb
