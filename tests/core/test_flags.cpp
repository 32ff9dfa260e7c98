// core::Flags: the validated CLI parser behind vdxsim. Invalid values must
// die loudly with a one-line message naming the flag and the offending
// value; absent flags fall back; typo'd flags are rejected, never ignored.
#include "core/flags.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace vdx::core {
namespace {

Flags make(std::initializer_list<std::string> args) {
  return Flags{std::vector<std::string>{args}};
}

/// The exact one-line message matters: it is the CLI's entire error UX.
void expect_throws(const std::function<void()>& action, const std::string& message) {
  try {
    action();
    FAIL() << "expected std::invalid_argument: " << message;
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string{error.what()}, message);
  }
}

TEST(Flags, ParsesValuesSwitchesAndFallbacks) {
  Flags flags = make({"--sessions", "2000", "--hours", "1.5", "--stream",
                      "--name", "marketplace"});
  EXPECT_EQ(flags.count("sessions", 0, 1), 2000u);
  EXPECT_DOUBLE_EQ(flags.positive("hours", 0.0), 1.5);
  EXPECT_TRUE(flags.boolean("stream"));
  EXPECT_EQ(flags.text("name", "x"), "marketplace");
  EXPECT_FALSE(flags.boolean("absent-switch"));
  EXPECT_EQ(flags.count("absent", 7, 1), 7u);
  EXPECT_DOUBLE_EQ(flags.number("absent-number", 2.5), 2.5);
  EXPECT_EQ(flags.text("absent-text", "fallback"), "fallback");
  flags.check_all_used();
}

TEST(Flags, PositiveRejectsZeroAndNegativeButAllowsZeroFallback) {
  expect_throws([] { (void)make({"--hours", "0"}).positive("hours", 0.0); },
                "--hours must be > 0 (got '0')");
  expect_throws([] { (void)make({"--hours", "-2"}).positive("hours", 0.0); },
                "--hours must be > 0 (got '-2')");
  // Absent flag: the 0.0 sentinel passes through untouched (vdxsim uses it
  // for "keep the trace default horizon").
  EXPECT_DOUBLE_EQ(make({}).positive("hours", 0.0), 0.0);
}

TEST(Flags, NumberRejectsGarbageAndNonFinite) {
  expect_throws([] { (void)make({"--veto", "abc"}).number("veto", 0.0); },
                "--veto needs a number (got 'abc')");
  expect_throws([] { (void)make({"--veto", "1.5x"}).number("veto", 0.0); },
                "--veto needs a finite number (got '1.5x')");
  expect_throws([] { (void)make({"--veto", "inf"}).number("veto", 0.0); },
                "--veto needs a finite number (got 'inf')");
  expect_throws([] { (void)make({"--veto"}).number("veto", 0.0); },
                "--veto needs a value");
}

TEST(Flags, CountEnforcesIntegerAndMinimum) {
  expect_throws([] { (void)make({"--threads", "0"}).count("threads", 0, 1); },
                "--threads must be an integer >= 1 (got '0')");
  expect_throws([] { (void)make({"--threads", "-4"}).count("threads", 0, 1); },
                "--threads must be an integer >= 1 (got '-4')");
  expect_throws([] { (void)make({"--threads", "2.5"}).count("threads", 0, 1); },
                "--threads needs an integer (got '2.5')");
  // Absent flag: the fallback may sit below the minimum (vdxsim's 0 =
  // hardware_concurrency sentinel) — only explicit values are range-checked.
  EXPECT_EQ(make({}).count("threads", 0, 1), 0u);
  EXPECT_EQ(make({"--threads", "8"}).count("threads", 0, 1), 8u);
}

TEST(Flags, CountAcceptsIntegralScientificNotation) {
  EXPECT_EQ(make({"--sessions", "1e5"}).count("sessions", 0, 1), 100'000u);
  EXPECT_EQ(make({"--sessions=2.5e3"}).count("sessions", 0, 1), 2'500u);
  expect_throws([] { (void)make({"--sessions", "1.5e0"}).count("sessions", 0, 1); },
                "--sessions needs an integer (got '1.5e0')");
  expect_throws([] { (void)make({"--sessions", "abc"}).count("sessions", 0, 1); },
                "--sessions needs an integer (got 'abc')");
  expect_throws([] { (void)make({"--sessions", "1e300"}).count("sessions", 0, 1); },
                "--sessions needs an integer (got '1e300')");
}

TEST(Flags, ExistingPathRejectsMissingFiles) {
  expect_throws(
      [] { (void)make({"--resume-from", "no-such.vdxsnap"}).existing_path("resume-from"); },
      "--resume-from: no such file or directory: 'no-such.vdxsnap'");
  EXPECT_EQ(make({}).existing_path("resume-from"), "");
}

TEST(Flags, UnknownFlagsAreRejectedNotIgnored) {
  Flags flags = make({"--sessions", "2000", "--sesions", "99"});
  EXPECT_EQ(flags.count("sessions", 0, 1), 2000u);
  expect_throws([&flags] { flags.check_all_used(); }, "unknown flag --sesions");
}

TEST(Flags, RejectsMalformedTokens) {
  expect_throws([] { (void)make({"sessions", "2000"}); },
                "expected --flag, got 'sessions'");
  expect_throws([] { (void)make({"--"}); }, "empty flag name '--'");
}

TEST(Flags, OneOfAcceptsListedValuesAndFallsBack) {
  const std::vector<std::string> scenarios{"steady", "flash-crowd", "blackout"};
  EXPECT_EQ(make({"--scenario", "blackout"}).one_of("scenario", "steady", scenarios),
            "blackout");
  // Absent flag: the fallback is returned as-is, not re-validated.
  EXPECT_EQ(make({}).one_of("scenario", "steady", scenarios), "steady");
}

TEST(Flags, OneOfRejectsUnlistedValuesWithTheFullMenu) {
  const std::vector<std::string> scenarios{"steady", "flash-crowd", "blackout"};
  expect_throws(
      [&scenarios] {
        (void)make({"--scenario", "tsunami"}).one_of("scenario", "steady", scenarios);
      },
      "--scenario must be one of steady|flash-crowd|blackout (got 'tsunami')");
  expect_throws(
      [&scenarios] {
        (void)make({"--scenario"}).one_of("scenario", "steady", scenarios);
      },
      "--scenario needs a value");
}

TEST(Flags, EqualsSyntaxParsesLikeSpaceSyntax) {
  Flags flags = make({"--sessions=2000", "--hours=1.5", "--stream",
                      "--name=marketplace", "--scenario=flash-crowd"});
  EXPECT_EQ(flags.count("sessions", 0, 1), 2000u);
  EXPECT_DOUBLE_EQ(flags.positive("hours", 0.0), 1.5);
  EXPECT_TRUE(flags.boolean("stream"));
  EXPECT_EQ(flags.text("name", "x"), "marketplace");
  EXPECT_EQ(flags.one_of("scenario", "steady", {"steady", "flash-crowd"}),
            "flash-crowd");
  flags.check_all_used();
}

TEST(Flags, EqualsSyntaxKeepsValuesThatLookLikeFlags) {
  // `--out=--weird` must take the literal value; the space form would have
  // read `--weird` as the next flag.
  Flags flags = make({"--out=--weird", "--factor=-2.5"});
  EXPECT_EQ(flags.text("out", ""), "--weird");
  EXPECT_DOUBLE_EQ(flags.number("factor", 0.0), -2.5);
  flags.check_all_used();
}

TEST(Flags, EqualsSyntaxRejectionsMatchSpaceSyntax) {
  // Same one-line messages for both spellings of an invalid value.
  expect_throws([] { (void)make({"--hours=0"}).positive("hours", 0.0); },
                "--hours must be > 0 (got '0')");
  expect_throws([] { (void)make({"--threads=2.5"}).count("threads", 0, 1); },
                "--threads needs an integer (got '2.5')");
  expect_throws([] { (void)make({"--veto=abc"}).number("veto", 0.0); },
                "--veto needs a number (got 'abc')");
  expect_throws([] { (void)make({"--veto="}).number("veto", 0.0); },
                "--veto needs a value");
  expect_throws([] { (void)make({"--=5"}); }, "empty flag name '--=5'");
  // The first '=' splits; later ones belong to the value.
  EXPECT_EQ(make({"--out=a=b"}).text("out", ""), "a=b");
}

TEST(Flags, WriteHelpListsDeclaredFlagsInDeclarationOrder) {
  Flags flags = make({});
  (void)flags.count("sessions", 2000, 1);
  (void)flags.positive("hours", 1.5);
  (void)flags.boolean("stream");
  (void)flags.one_of("scenario", "steady", {"steady", "blackout"});
  (void)flags.count("sessions", 0, 1);  // re-declaration: listed once
  std::ostringstream out;
  flags.write_help(out);
  const std::string help = out.str();
  EXPECT_NE(help.find("--sessions <integer >= 1>"), std::string::npos);
  EXPECT_NE(help.find("default: 2000"), std::string::npos);
  EXPECT_NE(help.find("--hours <number > 0>"), std::string::npos);
  EXPECT_NE(help.find("--stream"), std::string::npos);
  EXPECT_NE(help.find("--scenario <steady|blackout>"), std::string::npos);
  EXPECT_NE(help.find("default: steady"), std::string::npos);
  // First declaration wins the ordering and the default shown.
  EXPECT_LT(help.find("--sessions"), help.find("--hours"));
  EXPECT_EQ(help.find("default: 0\n"), std::string::npos);
  // Exactly one line per distinct flag.
  EXPECT_EQ(std::count(help.begin(), help.end(), '\n'), 4);
}

TEST(Flags, BareSwitchBeforeAnotherFlagParses) {
  Flags flags = make({"--stream", "--sessions", "2000"});
  EXPECT_TRUE(flags.boolean("stream"));
  EXPECT_EQ(flags.count("sessions", 0, 1), 2000u);
  EXPECT_TRUE(flags.has("stream"));
  EXPECT_FALSE(flags.has("hours"));
}

}  // namespace
}  // namespace vdx::core
