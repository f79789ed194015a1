#include "validation/validation_report.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace geolic {
namespace {

TEST(EquationResultTest, ValidIffLhsWithinRhs) {
  EXPECT_TRUE((EquationResult{testing::Mask(0b1), 10, 10}).valid());
  EXPECT_TRUE((EquationResult{testing::Mask(0b1), 9, 10}).valid());
  EXPECT_FALSE((EquationResult{testing::Mask(0b1), 11, 10}).valid());
}

TEST(ValidationReportTest, ToStringListsEveryViolation) {
  ValidationReport report;
  report.equations_evaluated = 31;
  report.violations.push_back(EquationResult{testing::Mask(0b00011), 1240, 1000});
  report.violations.push_back(EquationResult{testing::Mask(0b10000), 60, 50});
  const std::string text = report.ToString();
  EXPECT_NE(text.find("2 violation(s) in 31 equations"), std::string::npos);
  EXPECT_NE(text.find("C<{L1, L2}> = 1240 > A[{L1, L2}] = 1000"),
            std::string::npos);
  EXPECT_NE(text.find("C<{L5}> = 60 > A[{L5}] = 50"), std::string::npos);
}

}  // namespace
}  // namespace geolic
