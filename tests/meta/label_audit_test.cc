// Label audit: every test binary registered in tests/CMakeLists.txt must be
// created through one of the labeled floatfl_<subsystem>_test functions.
// The sanitizer presets and CI select work by ctest label, so a binary
// registered through an unlabeled helper (or a typo'd one) would silently
// run under no sanitizer and no CI filter. The audit parses the actual
// CMakeLists.txt (path injected via FLOATFL_TESTS_CMAKELISTS) so the list
// of registration sites can never drift from what this test checks.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

namespace floatfl {
namespace {

// The closed set of subsystem labels the presets and CI know about.
const std::set<std::string>& KnownLabels() {
  static const std::set<std::string> labels = {
      "concurrency", "failure",  "agg",       "net",    "guard",
      "topology",    "recovery", "admission", "salvage"};
  return labels;
}

// Drops leading whitespace from `text`; true if it then starts with `prefix`,
// which it drops too.
bool ConsumePrefix(std::string_view& text, std::string_view prefix) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  if (text.substr(0, prefix.size()) != prefix) {
    return false;
  }
  text.remove_prefix(prefix.size());
  return true;
}

bool IsLabelChar(char c) { return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_'; }

// The name after `floatfl_` at the start of `text`: its run of [a-z0-9_].
// The run is taken from `text`, and true is returned, only if `text` starts
// with `floatfl_`.
bool ConsumeHelperName(std::string_view& text, std::string& name) {
  if (!ConsumePrefix(text, "floatfl_")) {
    return false;
  }
  size_t end = 0;
  while (end < text.size() && IsLabelChar(text[end])) {
    ++end;
  }
  name = std::string(text.substr(0, end));
  text.remove_prefix(end);
  return true;
}

// The <label> of `name` = `<label>_test` with a non-empty label.
bool LabelOf(const std::string& name, std::string& label) {
  constexpr std::string_view kSuffix = "_test";
  if (name.size() <= kSuffix.size() || !name.ends_with(kSuffix)) {
    return false;
  }
  label = name.substr(0, name.size() - kSuffix.size());
  return true;
}

// A registration invocation: `floatfl_<name>(` at the start of a line, with
// optional whitespace before the parenthesis (function definitions start
// with `function(` instead).
bool InvokedHelper(std::string_view line, std::string& name) {
  return ConsumeHelperName(line, name) && ConsumePrefix(line, "(");
}

// A helper definition: `function(floatfl_<label>_test` followed by a
// character that cannot continue a name.
bool DefinedLabel(std::string_view line, std::string& label) {
  std::string name;
  if (!ConsumePrefix(line, "function") || !ConsumePrefix(line, "(") ||
      !ConsumeHelperName(line, name)) {
    return false;
  }
  // The run took every [a-z0-9_], so only an upper-case letter would
  // continue the name.
  const bool name_ends = line.empty() || !std::isupper(static_cast<unsigned char>(line.front()));
  return name_ends && LabelOf(name, label);
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
  size_t registrations = 0;
  size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    std::string name;
    std::string label;
    if (!InvokedHelper(line, name)) {
      continue;
    }
    if (!LabelOf(name, label)) {
      // A bare `floatfl_test(target ...)` would register an unlabeled
      // binary; the helper does not exist anymore and must not come back.
      EXPECT_NE(name, "test") << "unlabeled registration at tests/CMakeLists.txt:"
                              << line_number << ": " << line;
      continue;
    }
    ++registrations;
    EXPECT_TRUE(KnownLabels().count(label) > 0)
        << "unknown subsystem label '" << label << "' at tests/CMakeLists.txt:" << line_number
        << ": " << line;
  }
  // Sanity: the audit actually saw the registration sites (this binary's
  // own registration included).
  EXPECT_GE(registrations, 10u);
}

TEST(LabelAuditTest, EveryRegistrationFunctionAppliesItsLabel) {
  const std::string text = ReadCMakeLists();
  std::istringstream lines(text);
  std::string line;
  std::string open_label;  // label of the function body being scanned
  bool labeled = false;
  size_t functions_checked = 0;
  while (std::getline(lines, line)) {
    std::string label;
    if (DefinedLabel(line, label)) {
      open_label = label;
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
