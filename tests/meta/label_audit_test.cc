// Label audit: every test binary registered in tests/CMakeLists.txt must be
// created through one of the labeled floatfl_<subsystem>_test functions.
// The sanitizer presets and CI select work by ctest label, so a binary
// registered through an unlabeled helper (or a typo'd one) would silently
// run under no sanitizer and no CI filter. The audit parses the actual
// CMakeLists.txt (path injected via FLOATFL_TESTS_CMAKELISTS) so the list
// of registration sites can never drift from what this test checks.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace floatfl {
namespace {

// The closed set of subsystem labels the presets and CI know about.
const std::set<std::string>& KnownLabels() {
  static const std::set<std::string> labels = {
      "concurrency", "failure",  "agg",       "net",    "guard",
      "topology",    "recovery", "admission", "salvage"};
  return labels;
}

std::string ReadCMakeLists() {
  std::ifstream in(FLOATFL_TESTS_CMAKELISTS);
  EXPECT_TRUE(in.good()) << "cannot open " << FLOATFL_TESTS_CMAKELISTS;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(LabelAuditTest, EveryRegistrationUsesAKnownSubsystemLabel) {
  const std::string text = ReadCMakeLists();
  std::istringstream lines(text);
  std::string line;
  // A registration invocation: `floatfl_<label>_test(target ...` at the start
  // of a line (function definitions start with `function(` instead).
  const std::regex invocation(R"(^\s*floatfl_([a-z0-9_]+)_test\s*\()");
  size_t registrations = 0;
  size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    std::smatch m;
    if (!std::regex_search(line, m, invocation)) {
      // A bare `floatfl_test(target ...)` would register an unlabeled
      // binary; the helper does not exist anymore and must not come back.
      EXPECT_FALSE(std::regex_search(line, std::regex(R"(^\s*floatfl_test\s*\()")))
          << "unlabeled registration at tests/CMakeLists.txt:" << line_number << ": " << line;
      continue;
    }
    ++registrations;
    EXPECT_TRUE(KnownLabels().count(m[1].str()) > 0)
        << "unknown subsystem label '" << m[1].str() << "' at tests/CMakeLists.txt:"
        << line_number << ": " << line;
  }
  // Sanity: the audit actually saw the registration sites (this binary's
  // own registration included).
  EXPECT_GE(registrations, 10u);
}

TEST(LabelAuditTest, EveryRegistrationFunctionAppliesItsLabel) {
  const std::string text = ReadCMakeLists();
  std::istringstream lines(text);
  std::string line;
  const std::regex definition(R"(^\s*function\s*\(\s*floatfl_([a-z0-9_]+)_test\b)");
  std::string open_label;  // label of the function body being scanned
  bool labeled = false;
  size_t functions_checked = 0;
  while (std::getline(lines, line)) {
    std::smatch m;
    if (std::regex_search(line, m, definition)) {
      open_label = m[1].str();
      labeled = false;
      continue;
    }
    if (open_label.empty()) {
      continue;
    }
    // The body must attach exactly its own subsystem label to the tests.
    if (line.find("LABELS " + open_label) != std::string::npos) {
      labeled = true;
    }
    if (line.find("endfunction") != std::string::npos) {
      EXPECT_TRUE(labeled) << "floatfl_" << open_label
                           << "_test never applies 'LABELS " << open_label << "'";
      ++functions_checked;
      open_label.clear();
    }
  }
  EXPECT_EQ(functions_checked, KnownLabels().size());
}

}  // namespace
}  // namespace floatfl
