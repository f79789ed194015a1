#include "validation/report_json.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace geolic {
namespace {

TEST(ReportJsonTest, CleanReport) {
  ValidationReport report;
  report.equations_evaluated = 31;
  report.nodes_visited = 12;
  EXPECT_EQ(ReportToJson(report),
            "{\"valid\":true,\"equations_evaluated\":31,"
            "\"nodes_visited\":12,\"violations\":[]}");
}

TEST(ReportJsonTest, ViolationsSerialised) {
  ValidationReport report;
  report.equations_evaluated = 7;
  report.violations.push_back(EquationResult{testing::Mask(0b011), 1240, 1000});
  const std::string json = ReportToJson(report);
  EXPECT_NE(json.find("\"valid\":false"), std::string::npos);
  EXPECT_NE(json.find("\"set_mask\":\"0x3\""), std::string::npos);
  EXPECT_NE(json.find("\"licenses\":[1,2]"), std::string::npos);
  EXPECT_NE(json.find("\"lhs\":1240"), std::string::npos);
  EXPECT_NE(json.find("\"rhs\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"excess\":240"), std::string::npos);
}

TEST(ReportJsonTest, ViolationObjectShape) {
  ValidationReport report;
  report.violations.push_back(EquationResult{testing::Mask(0b100), 60, 50});
  EXPECT_EQ(ReportToJson(report),
            "{\"valid\":false,\"equations_evaluated\":0,"
            "\"nodes_visited\":0,\"violations\":[{\"set_mask\":\"0x4\","
            "\"licenses\":[3],\"lhs\":60,\"rhs\":50,\"excess\":10}]}");
}

TEST(ReportJsonTest, HighLicenseIndexes) {
  ValidationReport report;
  report.violations.push_back(EquationResult{LicenseSet::Singleton(63), 1, 2});
  const std::string json = ReportToJson(report);
  EXPECT_NE(json.find("\"licenses\":[64]"), std::string::npos);
  EXPECT_NE(json.find("\"set_mask\":\"0x8000000000000000\""),
            std::string::npos);
  EXPECT_NE(json.find("\"excess\":-1"), std::string::npos);
}

}  // namespace
}  // namespace geolic
