/**
 * @file
 * Tests for the laser_lint engine (src/lint/lint.h): each rule is
 * exercised in-memory and against the fixture files under
 * tests/lint_fixtures/, and a self-check asserts the shipped tree
 * lints clean (the same invariant CI's static-analysis job enforces).
 *
 * LASER_SOURCE_DIR is injected by CMake so the fixture / self-check
 * tests find the repository regardless of the build directory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace laser::lint {
namespace {

/** (line, rule) pairs of @p findings, for order-insensitive asserts. */
std::vector<std::pair<int, std::string>>
lineRules(const std::vector<Finding> &findings)
{
    std::vector<std::pair<int, std::string>> out;
    for (const Finding &f : findings)
        out.emplace_back(f.line, f.rule);
    return out;
}

std::vector<Finding>
lintFixture(const std::string &name)
{
    const std::string rel = "tests/lint_fixtures/" + name;
    SourceFile f;
    EXPECT_TRUE(loadFile(LASER_SOURCE_DIR, rel, &f))
        << "cannot read " << rel;
    return lintSource(f.path, f.content);
}

// ---------------------------------------------------------------------
// Rule metadata
// ---------------------------------------------------------------------

TEST(LintRules, ListsAllFourRules)
{
    std::set<std::string> names;
    for (const RuleInfo &r : rules())
        names.insert(r.name);
    EXPECT_EQ(names.size(), 4u);
    EXPECT_TRUE(isRule("raw-mutex"));
    EXPECT_TRUE(isRule("raw-new-delete"));
    EXPECT_TRUE(isRule("include-guard"));
    EXPECT_TRUE(isRule("header-hygiene"));
    EXPECT_FALSE(isRule("no-such-rule"));
    // Dropped statuses are a compile error, not a lint rule (see
    // tests/compile_fixtures/dropped_status.cc).
    EXPECT_FALSE(isRule("unchecked-status"));
    EXPECT_FALSE(isRule("nodiscard-status"));
}

TEST(LintRules, FindingStrIsMachineReadable)
{
    Finding f{"src/a.cc", 12, "raw-mutex", "boom"};
    EXPECT_EQ(f.str(), "src/a.cc:12: raw-mutex: boom");
}

// ---------------------------------------------------------------------
// raw-mutex
// ---------------------------------------------------------------------

TEST(RawMutex, FlagsStdPrimitivesButNotSuppressedOrForeignNames)
{
    const auto got = lineRules(lintFixture("raw_mutex.cc"));
    const std::vector<std::pair<int, std::string>> want = {
        {8, "raw-mutex"},
        {9, "raw-mutex"},
        {14, "raw-mutex"}, // std::lock_guard
        {14, "raw-mutex"}, // its std::mutex template argument
    };
    EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------
// raw-new-delete
// ---------------------------------------------------------------------

TEST(RawNewDelete, FlagsExpressionsButNotDeletedMembersOrOperators)
{
    const auto got = lineRules(lintFixture("raw_new.cc"));
    const std::vector<std::pair<int, std::string>> want = {
        {16, "raw-new-delete"},
        {17, "raw-new-delete"},
    };
    EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------
// include-guard
// ---------------------------------------------------------------------

TEST(IncludeGuard, FlagsWrongGuardName)
{
    const auto findings = lintFixture("bad_guard.h");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "include-guard");
    EXPECT_NE(findings[0].message.find("LASER_LINT_FIXTURES_BAD_GUARD_H"),
              std::string::npos);
}

TEST(IncludeGuard, FlagsMissingGuardAndAcceptsCanonical)
{
    EXPECT_EQ(lintSource("src/util/x.h", "int f();\n").size(), 1u);
    const std::string good =
        "#ifndef LASER_UTIL_X_H\n#define LASER_UTIL_X_H\n"
        "int f();\n"
        "#endif // LASER_UTIL_X_H\n";
    EXPECT_TRUE(lintSource("src/util/x.h", good).empty());
    // src/ is the include root (dropped); other trees keep their dir.
    const std::string bench =
        "#ifndef LASER_BENCH_COMMON_H\n#define LASER_BENCH_COMMON_H\n"
        "#endif\n";
    EXPECT_TRUE(lintSource("bench/bench_common.h", bench).empty());
}

TEST(IncludeGuard, CoversProtocolHeaders)
{
    // The coherence-protocol headers follow the canonical guard scheme;
    // a stale guard (say, copied from coherence.h) is flagged with the
    // expected name.
    const auto guarded = [](const std::string &guard) {
        return "#ifndef " + guard + "\n#define " + guard + "\n#endif // " +
               guard + "\n";
    };
    EXPECT_TRUE(lintSource("src/sim/protocol.h",
                           guarded("LASER_SIM_PROTOCOL_H"))
                    .empty());
    EXPECT_TRUE(lintSource("src/sim/protocol_mesi.h",
                           guarded("LASER_SIM_PROTOCOL_MESI_H"))
                    .empty());
    EXPECT_TRUE(lintSource("src/sim/protocol_dragon.h",
                           guarded("LASER_SIM_PROTOCOL_DRAGON_H"))
                    .empty());

    const auto findings = lintSource("src/sim/protocol.h",
                                     guarded("LASER_SIM_COHERENCE_H"));
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "include-guard");
    EXPECT_NE(findings[0].message.find("LASER_SIM_PROTOCOL_H"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// header-hygiene
// ---------------------------------------------------------------------

TEST(HeaderHygiene, FlagsUsingNamespaceButNotUsingDeclarations)
{
    const auto got = lineRules(lintFixture("using_namespace.h"));
    const std::vector<std::pair<int, std::string>> want = {
        {8, "header-hygiene"},
    };
    EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------
// Lexer corner cases
// ---------------------------------------------------------------------

TEST(LintLexer, IgnoresBannedTokensInCommentsAndStrings)
{
    const std::string src =
        "// std::mutex new delete\n"
        "/* std::mutex\n   new */\n"
        "const char *a = \"std::mutex new\";\n"
        "const char *b = R\"(std::mutex delete)\";\n"
        "const char c = 'x';\n";
    EXPECT_TRUE(lintSource("src/a.cc", src).empty());
}

TEST(LintLexer, SuppressionCoversOwnLineAndNextCodeLine)
{
    const std::string src =
        "int *a = new int; // laser-lint: allow(raw-new-delete) why\n"
        "// laser-lint: allow(raw-new-delete) next-line form\n"
        "int *b = new int;\n"
        "int *c = new int;\n";
    const auto findings = lintSource("src/a.cc", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 4);
}

TEST(LintLexer, TrailingSuppressionDoesNotLeakToNextLine)
{
    const std::string src =
        "int *a = new int; // laser-lint: allow(raw-new-delete) why\n"
        "int *b = new int;\n";
    const auto findings = lintSource("src/a.cc", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 2);
}

TEST(LintLexer, RuleFilterRestrictsOutput)
{
    const std::string src = "using namespace std;\nint *p = new int;\n";
    Options only;
    only.enabledRules = {"raw-new-delete"};
    const auto findings =
        lintSource("src/a.h", src, only); // guard violation filtered too
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "raw-new-delete");
}

// ---------------------------------------------------------------------
// Repository self-check: the shipped tree must lint clean, with the
// fixture directory excluded from collection.
// ---------------------------------------------------------------------

TEST(LintSelfCheck, CollectSkipsFixturesAndFindsKnownFiles)
{
    const auto paths = collectFiles(LASER_SOURCE_DIR);
    EXPECT_FALSE(paths.empty());
    for (const std::string &p : paths)
        EXPECT_EQ(p.find("lint_fixtures"), std::string::npos) << p;
    const auto has = [&](const char *p) {
        return std::find(paths.begin(), paths.end(), p) != paths.end();
    };
    EXPECT_TRUE(has("src/lint/lint.h"));
    EXPECT_TRUE(has("src/trace/trace.cc"));
    EXPECT_TRUE(has("tools/laser_lint.cc"));
    EXPECT_TRUE(has("tests/test_lint.cc"));
}

TEST(LintSelfCheck, ShippedTreeLintsClean)
{
    std::vector<SourceFile> files;
    for (const std::string &p : collectFiles(LASER_SOURCE_DIR)) {
        SourceFile f;
        ASSERT_TRUE(loadFile(LASER_SOURCE_DIR, p, &f)) << p;
        files.push_back(std::move(f));
    }
    const auto findings = lintFiles(files);
    for (const Finding &f : findings)
        ADD_FAILURE() << f.str();
    EXPECT_TRUE(findings.empty());
}

} // namespace
} // namespace laser::lint
