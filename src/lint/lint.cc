#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace laser::lint {

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

struct Token
{
    std::string text;
    int line = 0;
    bool ident = false;
};

/** One preprocessor logical line: "#name arg ..." */
struct Directive
{
    int line = 0;
    std::string name;
    std::string arg;
};

struct LexedFile
{
    std::vector<Token> tokens;
    std::vector<Directive> directives;
    /** Line -> rules suppressed on that line (see header comment). */
    std::map<int, std::set<std::string>> allows;
};

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Parse "laser-lint: allow(rule-a, rule-b)" out of a comment. */
std::set<std::string>
parseAllowComment(const std::string &comment)
{
    std::set<std::string> rules;
    const std::string marker = "laser-lint:";
    std::size_t at = comment.find(marker);
    if (at == std::string::npos)
        return rules;
    at = comment.find("allow(", at + marker.size());
    if (at == std::string::npos)
        return rules;
    const std::size_t open = at + 5; // index of '('
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos)
        return rules;
    std::string name;
    for (std::size_t i = open + 1; i <= close; ++i) {
        const char c = i < close ? comment[i] : ',';
        if (c == ',' ) {
            if (!name.empty())
                rules.insert(name);
            name.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            name.push_back(c);
        }
    }
    return rules;
}

/**
 * Tokenize C++ source: comments and literals are consumed (comments
 * feed the suppression map), preprocessor logical lines land in
 * `directives`, everything else becomes identifier / punctuation
 * tokens. "::" and "->" are single tokens; other punctuation is one
 * character per token.
 */
LexedFile
lex(const std::string &s)
{
    LexedFile out;
    std::set<std::string> pending; // allows waiting for the next code line
    const std::size_t n = s.size();
    std::size_t i = 0;
    int line = 1;
    bool lineHasToken = false;

    const auto peek = [&](std::size_t k) {
        return i + k < n ? s[i + k] : '\0';
    };
    const auto emit = [&](std::string text, bool ident) {
        if (!pending.empty()) {
            out.allows[line].insert(pending.begin(), pending.end());
            pending.clear();
        }
        out.tokens.push_back({std::move(text), line, ident});
        lineHasToken = true;
    };
    const auto noteAllows = [&](const std::string &comment, int at,
                                bool trailing) {
        const std::set<std::string> rules = parseAllowComment(comment);
        if (rules.empty())
            return;
        out.allows[at].insert(rules.begin(), rules.end());
        if (!trailing)
            pending.insert(rules.begin(), rules.end());
    };
    // Consume a quoted literal starting at s[i] (the opening quote).
    const auto skipQuoted = [&](char quote) {
        ++i; // opening quote
        while (i < n) {
            if (s[i] == '\\' && i + 1 < n) {
                i += 2;
                continue;
            }
            if (s[i] == '\n')
                ++line; // unterminated literal; keep line counts sane
            if (s[i] == quote) {
                ++i;
                return;
            }
            ++i;
        }
    };

    while (i < n) {
        const char c = s[i];
        if (c == '\n') {
            ++line;
            ++i;
            lineHasToken = false;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '/' && peek(1) == '/') {
            std::size_t end = s.find('\n', i);
            if (end == std::string::npos)
                end = n;
            noteAllows(s.substr(i, end - i), line, lineHasToken);
            i = end;
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            const bool trailing = lineHasToken;
            std::size_t j = i + 2;
            int commentLine = line;
            std::string text;
            while (j + 1 < n && !(s[j] == '*' && s[j + 1] == '/')) {
                if (s[j] == '\n') {
                    noteAllows(text, commentLine, trailing);
                    text.clear();
                    ++commentLine;
                } else {
                    text.push_back(s[j]);
                }
                ++j;
            }
            noteAllows(text, commentLine, trailing);
            line = commentLine;
            i = j + 1 < n ? j + 2 : n;
            continue;
        }
        if (c == '#' && !lineHasToken) {
            // Preprocessor logical line (with \-continuations).
            const int startLine = line;
            std::string text;
            while (i < n && s[i] != '\n') {
                if (s[i] == '\\' && peek(1) == '\n') {
                    ++line;
                    i += 2;
                    text.push_back(' ');
                    continue;
                }
                // A // comment ends the directive's interesting part.
                if (s[i] == '/' && peek(1) == '/')
                    break;
                text.push_back(s[i]);
                ++i;
            }
            while (i < n && s[i] != '\n')
                ++i;
            std::istringstream in(text.substr(1)); // past '#'
            Directive d;
            d.line = startLine;
            in >> d.name >> d.arg;
            out.directives.push_back(std::move(d));
            continue;
        }
        if (c == '"') {
            skipQuoted('"');
            continue;
        }
        if (c == '\'') {
            skipQuoted('\'');
            continue;
        }
        if (identStart(c)) {
            std::size_t j = i;
            while (j < n && identChar(s[j]))
                ++j;
            std::string word = s.substr(i, j - i);
            i = j;
            // String-literal prefixes: R"( raw strings (span.cc uses
            // them), u8/u/U/L prefixes, and their raw combinations.
            if (i < n && s[i] == '"') {
                const bool raw = !word.empty() && word.back() == 'R';
                const std::string stem =
                    raw ? word.substr(0, word.size() - 1) : word;
                const bool prefix = stem.empty() || stem == "u8" ||
                                    stem == "u" || stem == "U" ||
                                    stem == "L";
                if (prefix && raw) {
                    // R"delim( ... )delim"
                    ++i; // opening quote
                    std::string delim;
                    while (i < n && s[i] != '(')
                        delim.push_back(s[i++]);
                    const std::string close = ")" + delim + "\"";
                    const std::size_t end = s.find(close, i);
                    const std::size_t stop =
                        end == std::string::npos ? n : end + close.size();
                    for (std::size_t k = i; k < stop && k < n; ++k)
                        if (s[k] == '\n')
                            ++line;
                    i = stop;
                    continue;
                }
                if (prefix && !stem.empty()) {
                    skipQuoted('"');
                    continue;
                }
            }
            emit(std::move(word), true);
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i;
            while (j < n &&
                   (identChar(s[j]) || s[j] == '.' ||
                    (s[j] == '\'' && j + 1 < n && identChar(s[j + 1]))))
                ++j;
            i = j;
            // Number values never matter to the rules; drop them.
            continue;
        }
        if (c == ':' && peek(1) == ':') {
            emit("::", false);
            i += 2;
            continue;
        }
        if (c == '-' && peek(1) == '>') {
            emit("->", false);
            i += 2;
            continue;
        }
        emit(std::string(1, c), false);
        ++i;
    }
    return out;
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

const char *kRawMutex = "raw-mutex";
const char *kRawNewDelete = "raw-new-delete";
const char *kIncludeGuard = "include-guard";
const char *kHeaderHygiene = "header-hygiene";

bool
isHeader(const std::string &path)
{
    return path.size() >= 2 &&
           path.compare(path.size() - 2, 2, ".h") == 0;
}

void
checkRawMutex(const std::string &path, const LexedFile &f,
              std::vector<Finding> *out)
{
    static const std::set<std::string> banned = {
        "mutex",          "timed_mutex",
        "recursive_mutex", "recursive_timed_mutex",
        "shared_mutex",   "shared_timed_mutex",
        "condition_variable", "condition_variable_any",
        "lock_guard",     "unique_lock",
        "scoped_lock",    "shared_lock",
    };
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].text == "std" && t[i + 1].text == "::" &&
                banned.count(t[i + 2].text))
            out->push_back(
                {path, t[i].line, kRawMutex,
                 "raw std::" + t[i + 2].text +
                     " is invisible to -Wthread-safety; use "
                     "util::Mutex / util::MutexLock / util::CondVar "
                     "(util/mutex.h)"});
    }
}

void
checkRawNewDelete(const std::string &path, const LexedFile &f,
                  std::vector<Finding> *out)
{
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].ident)
            continue;
        const bool isNew = t[i].text == "new";
        const bool isDelete = t[i].text == "delete";
        if (!isNew && !isDelete)
            continue;
        if (i > 0 && t[i - 1].text == "operator")
            continue; // operator new/delete declaration
        if (isDelete && i > 0 && t[i - 1].text == "=")
            continue; // deleted special member
        out->push_back(
            {path, t[i].line, kRawNewDelete,
             std::string("raw '") + (isNew ? "new" : "delete") +
                 "' expression; use containers or smart pointers"});
    }
}

/** LASER_<SUBPATH>_H guard expected for @p path. */
std::string
expectedGuard(const std::string &path)
{
    std::vector<std::string> comps;
    std::string cur;
    for (char c : path) {
        if (c == '/' || c == '\\') {
            if (!cur.empty() && cur != ".")
                comps.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        comps.push_back(cur);
    // Components after the last known top-level dir; src/ is the
    // include root (guards omit it), the other trees keep their name
    // in the filename convention (bench/bench_common.h).
    std::size_t begin = 0;
    for (std::size_t i = 0; i < comps.size(); ++i)
        if (comps[i] == "src" || comps[i] == "tools" ||
                comps[i] == "bench" || comps[i] == "tests")
            begin = i + 1;
    if (begin >= comps.size())
        begin = comps.size() > 1 ? comps.size() - 1 : 0;
    std::string guard = "LASER";
    for (std::size_t i = begin; i < comps.size(); ++i) {
        guard.push_back('_');
        for (char c : comps[i]) {
            if (c == '.' && i + 1 == comps.size())
                break; // drop the extension
            guard.push_back(
                std::isalnum(static_cast<unsigned char>(c))
                    ? static_cast<char>(
                          std::toupper(static_cast<unsigned char>(c)))
                    : '_');
        }
    }
    guard += "_H";
    return guard;
}

void
checkIncludeGuard(const std::string &path, const LexedFile &f,
                  std::vector<Finding> *out)
{
    if (!isHeader(path))
        return;
    const std::string expected = expectedGuard(path);
    const std::vector<Directive> &d = f.directives;
    if (d.size() < 2 || d[0].name != "ifndef" || d[1].name != "define" ||
            d[0].arg != d[1].arg) {
        out->push_back({path, d.empty() ? 1 : d[0].line, kIncludeGuard,
                        "header must open with the canonical "
                        "#ifndef/#define " +
                            expected + " guard pair"});
        return;
    }
    if (d[0].arg != expected) {
        out->push_back({path, d[0].line, kIncludeGuard,
                        "include guard '" + d[0].arg +
                            "' does not match the path-derived name '" +
                            expected + "'"});
        return;
    }
    if (d.back().name != "endif")
        out->push_back({path, d.back().line, kIncludeGuard,
                        "include guard is not closed by a trailing "
                        "#endif"});
}

void
checkHeaderHygiene(const std::string &path, const LexedFile &f,
                   std::vector<Finding> *out)
{
    if (!isHeader(path))
        return;
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i)
        if (t[i].text == "using" && t[i + 1].text == "namespace")
            out->push_back({path, t[i].line, kHeaderHygiene,
                            "'using namespace' in a header leaks into "
                            "every includer"});
}

} // namespace

// ---------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------

std::string
Finding::str() const
{
    return file + ":" + std::to_string(line) + ": " + rule + ": " +
           message;
}

const std::vector<RuleInfo> &
rules()
{
    static const std::vector<RuleInfo> kRules = {
        {kRawMutex,
         "raw std mutex/lock/condvar outside util/mutex.h (invisible "
         "to -Wthread-safety)"},
        {kRawNewDelete,
         "raw new/delete expression (use containers / smart pointers)"},
        {kIncludeGuard,
         "header guard missing or not the canonical LASER_<PATH>_H "
         "pair"},
        {kHeaderHygiene, "'using namespace' at header scope"},
    };
    return kRules;
}

bool
isRule(const std::string &name)
{
    for (const RuleInfo &r : rules())
        if (name == r.name)
            return true;
    return false;
}

std::vector<Finding>
lintFiles(const std::vector<SourceFile> &files, const Options &options)
{
    std::set<std::string> enabled;
    for (const std::string &r : options.enabledRules)
        enabled.insert(r);
    const auto runs = [&](const char *rule) {
        return enabled.empty() || enabled.count(rule) > 0;
    };

    std::vector<Finding> all;
    for (const SourceFile &file : files) {
        const std::string &path = file.path;
        const LexedFile f = lex(file.content);
        std::vector<Finding> raw;
        if (runs(kRawMutex))
            checkRawMutex(path, f, &raw);
        if (runs(kRawNewDelete))
            checkRawNewDelete(path, f, &raw);
        if (runs(kIncludeGuard))
            checkIncludeGuard(path, f, &raw);
        if (runs(kHeaderHygiene))
            checkHeaderHygiene(path, f, &raw);
        for (Finding &finding : raw) {
            const auto it = f.allows.find(finding.line);
            if (it != f.allows.end() && it->second.count(finding.rule))
                continue; // suppressed
            all.push_back(std::move(finding));
        }
    }
    std::sort(all.begin(), all.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return all;
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content,
           const Options &options)
{
    return lintFiles({{path, content}}, options);
}

std::vector<std::string>
collectFiles(const std::string &root)
{
    std::vector<std::string> out;
    for (const char *top : {"src", "tools", "bench", "tests"}) {
        const fs::path dir = fs::path(root) / top;
        std::error_code ec;
        fs::recursive_directory_iterator it(dir, ec), end;
        for (; !ec && it != end; it.increment(ec)) {
            if (it->is_directory() &&
                    it->path().filename() == "lint_fixtures") {
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext != ".h" && ext != ".cc")
                continue;
            out.push_back(
                fs::relative(it->path(), root).generic_string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
loadFile(const std::string &root, const std::string &relPath,
         SourceFile *out)
{
    std::ifstream in(fs::path(root) / relPath, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out->path = relPath;
    out->content = buf.str();
    return true;
}

} // namespace laser::lint
