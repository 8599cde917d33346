/**
 * @file
 * laser_lint engine: a dependency-free, token-level checker enforcing
 * this repository's C++ invariants — the ones past PRs fixed by hand
 * and CI now keeps fixed (see tools/laser_lint.cc for the CLI).
 *
 * Rules (rule names are stable; they appear in output and suppression
 * comments):
 *
 *   raw-mutex          std::mutex / std::condition_variable /
 *                      std::lock_guard / std::unique_lock (and friends)
 *                      used outside util/mutex.h. Unannotated locks are
 *                      invisible to -Wthread-safety; use util::Mutex /
 *                      util::MutexLock / util::CondVar.
 *   raw-new-delete     Raw new / delete expressions. Use standard
 *                      containers and smart pointers (`= delete` and
 *                      `operator new` declarations are exempt).
 *   include-guard      A header's first two preprocessor directives must
 *                      be the canonical #ifndef/#define pair derived
 *                      from its path (LASER_<SUBPATH>_H), closed by a
 *                      trailing #endif.
 *   header-hygiene     `using namespace` in a header leaks into every
 *                      includer.
 *
 * Suppression: a comment `laser-lint: allow(rule-a, rule-b)` silences
 * the listed rules on its own line and on the next line of code, so it
 * works both trailing (`stmt; // laser-lint: allow(raw-new-delete)`)
 * and as a (possibly multi-line) comment directly above the offending
 * line. Every suppression should carry a justification after the
 * closing parenthesis.
 *
 * The checker lexes real C++ (line comments, block comments, string /
 * char / raw-string literals, preprocessor logical lines) but does not
 * parse it; rules are token-pattern based, which keeps the tool
 * dependency-free and fast. Dropped trace::TraceStatus values are not a
 * lint rule: the type is [[nodiscard]] and the build compiles with
 * -Werror=unused-result.
 */

#ifndef LASER_LINT_LINT_H
#define LASER_LINT_LINT_H

#include <string>
#include <vector>

namespace laser::lint {

/** One input file: a path (used for messages + path-derived rules) and
 *  its full contents. */
struct SourceFile
{
    std::string path;
    std::string content;
};

/** One rule violation. */
struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;

    /** The machine-readable "file:line: rule: message" form. */
    std::string str() const;
};

/** Rule metadata for --list-rules. */
struct RuleInfo
{
    const char *name;
    const char *summary;
};

/** All rules, in reporting order. */
const std::vector<RuleInfo> &rules();

/** True if @p name names a known rule. */
bool isRule(const std::string &name);

struct Options
{
    /** Rules to run; empty runs all. Unknown names are ignored
     *  (validate with isRule() first for a friendly error). */
    std::vector<std::string> enabledRules;
};

/**
 * Lint a set of files: every file is checked against every enabled
 * rule. Findings are sorted by (file, line, rule).
 */
std::vector<Finding> lintFiles(const std::vector<SourceFile> &files,
                               const Options &options = {});

/** Convenience: lint one in-memory file (tests use this heavily). */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &content,
                                const Options &options = {});

/**
 * Collect the repository's lintable files: *.h and *.cc under
 * src/ tools/ bench/ tests/ of @p root, skipping any directory named
 * "lint_fixtures" (those are deliberate violations used by the lint's
 * own tests). Returned paths are relative to @p root, sorted.
 */
std::vector<std::string> collectFiles(const std::string &root);

/**
 * Read @p relPath (relative to @p root) into a SourceFile whose path is
 * the relative form. Returns false (and fills nothing) on I/O error.
 */
bool loadFile(const std::string &root, const std::string &relPath,
              SourceFile *out);

} // namespace laser::lint

#endif // LASER_LINT_LINT_H
