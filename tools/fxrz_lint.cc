// fxrz_lint: project-specific static analysis for the FXRZ codebase.
//
// Some invariants in this repository exist by convention and are easy to
// regress silently in review; this tool makes them machine-checked.
// It is a lexical analyzer (comment/string-aware token scanning, function
// body extraction by brace matching) rather than a clang-tidy plugin so it
// runs on every CI box, including gcc-only ones without clang tooling.
//
//   fxrz-byte-reader-only
//     Inside any function definition in src/compressors/, src/encoding/,
//     or src/store/ whose name contains Decompress, Deserialize, Decode or
//     Parse, bytes from an untrusted `const uint8_t*` parameter must be
//     parsed through the bounds-checked ByteReader
//     (src/util/byte_reader.h). Raw memcpy from the parameter,
//     reinterpret_cast of it, direct indexing, and manual cursor advances
//     on it are flagged.
//
//   fxrz-decode-output-for-overwrite
//     Inside a DoDecompress definition in src/compressors/, a tensor is
//     built with Tensor::ForOverwrite, never as `Tensor name(...)`: the
//     zero-filling construction touches every page of the output on the
//     calling thread before the decode's own (often parallel) pass writes
//     every element again.
//
//   fxrz-no-unguarded-shared-state
//     Raw std::mutex / std::lock_guard / std::unique_lock /
//     std::condition_variable are banned everywhere in src/ -- clang's
//     thread-safety analysis cannot see through unannotated primitives, so
//     shared state must use AnnotatedMutex / MutexLock / CondVar from
//     src/util/thread_annotations.h (which is itself exempt: it wraps the
//     raw primitives once). std::atomic declarations must document their
//     protocol with FXRZ_GUARDED_BY or a `lock-free:` comment on or just
//     above the declaration.
//
// Usage:
//   fxrz_lint [--root DIR] [--treat-as VPATH] [--expect CHECKS] PATH...
//
//   PATH         files or directories (directories walked for .cc/.h)
//   --root DIR   report and scope paths relative to DIR
//   --treat-as P scope every given file as if its path were P (fixture
//                testing: lint tests/lint/fixtures/x.cc as
//                src/compressors/x.cc)
//   --expect C   comma-separated check names; exit 0 iff every named check
//                produced at least one finding (inverted fixture mode)
//
// Exit status: 0 clean (or --expect satisfied), 1 findings (or --expect
// unsatisfied), 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string path;
  size_t line = 0;
  std::string check;
  std::string message;
};

bool IsIdent(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// A loaded source file: `raw` is the original text (comment checks), `code`
// has comments and string/char literals blanked with spaces so token scans
// cannot match inside them. Newlines are preserved in both.
struct SourceFile {
  std::string display_path;  // what findings report
  std::string virtual_path;  // what check scoping matches against
  std::string raw;
  std::string code;
  std::vector<size_t> line_starts;  // offset of each line's first char

  size_t LineOf(size_t offset) const {
    const auto it = std::upper_bound(line_starts.begin(), line_starts.end(),
                                     offset);
    return static_cast<size_t>(it - line_starts.begin());
  }

  std::string RawLine(size_t line) const {  // 1-based; "" out of range
    if (line == 0 || line > line_starts.size()) return "";
    const size_t begin = line_starts[line - 1];
    const size_t end = line < line_starts.size() ? line_starts[line] - 1
                                                 : raw.size();
    return raw.substr(begin, end - begin);
  }
};

// Blanks comments and string/char literals (raw strings included). Keeps
// newlines so offsets map to the same lines in `raw` and `code`.
std::string StripCommentsAndLiterals(const std::string& in) {
  std::string out = in;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"' && i > 0 && in[i - 1] == 'R') {
          // R"delim( -- find the delimiter up to the '('.
          size_t p = i + 1;
          while (p < in.size() && in[p] != '(') ++p;
          raw_delim = in.substr(i + 1, p - i - 1);
          state = State::kRawString;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString: {
        const std::string close = ")" + raw_delim + "\"";
        if (in.compare(i, close.size(), close) == 0) {
          for (size_t k = 0; k < close.size(); ++k) {
            if (in[i + k] != '\n') out[i + k] = ' ';
          }
          i += close.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

size_t SkipSpace(const std::string& s, size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return i;
}

// Offset of the matching closer for the opener at `open` (e.g. '(' / ')');
// npos when unbalanced.
size_t MatchDelim(const std::string& s, size_t open, char oc, char cc) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == oc) ++depth;
    if (s[i] == cc && --depth == 0) return i;
  }
  return std::string::npos;
}

// True when `needle` occurs at `at` as a whole identifier.
bool TokenAt(const std::string& s, size_t at, const std::string& needle) {
  if (s.compare(at, needle.size(), needle) != 0) return false;
  if (at > 0 && IsIdent(s[at - 1])) return false;
  const size_t end = at + needle.size();
  if (end < s.size() && IsIdent(s[end])) return false;
  return true;
}

// True when `at` is a member access (x.name / x->name / X::name) rather
// than a use of the plain identifier.
bool IsMemberAccess(const std::string& s, size_t at) {
  return at > 0 && (s[at - 1] == '.' || s[at - 1] == '>' || s[at - 1] == ':');
}

bool ContainsToken(const std::string& s, const std::string& needle) {
  for (size_t at = s.find(needle); at != std::string::npos;
       at = s.find(needle, at + 1)) {
    if (TokenAt(s, at, needle) && !IsMemberAccess(s, at)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// fxrz-no-unguarded-shared-state
// ---------------------------------------------------------------------------

void CheckSharedState(const SourceFile& f, std::vector<Finding>* findings) {
  if (f.virtual_path.ends_with("thread_annotations.h")) return;
  constexpr const char* kCheck = "fxrz-no-unguarded-shared-state";

  // Raw locking vocabulary is banned outright.
  struct Banned {
    const char* token;
    const char* advice;
  };
  const Banned banned[] = {
      {"std::mutex", "use fxrz::AnnotatedMutex"},
      {"std::recursive_mutex", "use fxrz::AnnotatedMutex"},
      {"std::shared_mutex", "use fxrz::AnnotatedMutex"},
      {"std::timed_mutex", "use fxrz::AnnotatedMutex"},
      {"std::lock_guard", "use fxrz::MutexLock"},
      {"std::scoped_lock", "use fxrz::MutexLock"},
      {"std::unique_lock", "use fxrz::MutexLock"},
      {"std::condition_variable", "use fxrz::CondVar"},
  };
  for (const Banned& b : banned) {
    const std::string needle(b.token);
    for (size_t at = f.code.find(needle); at != std::string::npos;
         at = f.code.find(needle, at + 1)) {
      if (at > 0 && IsIdent(f.code[at - 1])) continue;
      const size_t end = at + needle.size();
      // Whole token, except condition_variable_any counts as a match too.
      if (end < f.code.size() && IsIdent(f.code[end]) &&
          f.code.compare(end, 4, "_any") != 0) {
        continue;
      }
      findings->push_back(
          {f.display_path, f.LineOf(at), kCheck,
           std::string("raw ") + b.token + " is invisible to the " +
               "thread-safety analysis; " + b.advice +
               " (src/util/thread_annotations.h)"});
    }
  }

  // std::atomic declarations must document their protocol.
  const std::string atomic = "std::atomic";
  for (size_t at = f.code.find(atomic); at != std::string::npos;
       at = f.code.find(atomic, at + 1)) {
    if (at > 0 && IsIdent(f.code[at - 1])) continue;
    const size_t after = SkipSpace(f.code, at + atomic.size());
    if (after >= f.code.size() || f.code[after] != '<') continue;
    // The protocol comment may sit on the declaration itself or above a
    // contiguous group of declarations it documents; walk upward until a
    // blank line (or 10 lines) ends the group.
    const size_t line = f.LineOf(at);
    bool documented = false;
    for (size_t l = line; l >= 1 && line - l <= 10 && !documented; --l) {
      const std::string text = f.RawLine(l);
      if (l != line &&
          text.find_first_not_of(" \t\r") == std::string::npos) {
        break;  // blank line ends the declaration group
      }
      documented = text.find("FXRZ_GUARDED_BY") != std::string::npos ||
                   text.find("lock-free:") != std::string::npos;
    }
    if (!documented) {
      findings->push_back(
          {f.display_path, line, kCheck,
           "std::atomic without a documented protocol; annotate with "
           "FXRZ_GUARDED_BY(...) or a `lock-free:` comment on or just above "
           "the declaration"});
    }
  }
}

// ---------------------------------------------------------------------------
// fxrz-byte-reader-only
// ---------------------------------------------------------------------------

// Splits the top-level comma-separated arguments of the parenthesized list
// starting at `open` (which must point at '(').
std::vector<std::string> SplitArgs(const std::string& s, size_t open,
                                   size_t close) {
  std::vector<std::string> args;
  int depth = 0;
  size_t start = open + 1;
  for (size_t i = open; i <= close; ++i) {
    const char c = s[i];
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if ((c == ',' && depth == 1) || i == close) {
      args.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return args;
}

// Extracts the names of `const uint8_t*` parameters from a parameter list.
std::vector<std::string> UntrustedByteParams(const std::string& params) {
  std::vector<std::string> names;
  for (const char* type : {"uint8_t", "unsigned char"}) {
    const std::string needle(type);
    for (size_t at = params.find(needle); at != std::string::npos;
         at = params.find(needle, at + 1)) {
      if (at > 0 && (IsIdent(params[at - 1]) || params[at - 1] == ':')) {
        continue;  // e.g. std::uint8_t matched at "uint8_t" -- allow below
      }
      size_t i = SkipSpace(params, at + needle.size());
      if (i >= params.size() || params[i] != '*') continue;
      i = SkipSpace(params, i + 1);
      size_t end = i;
      while (end < params.size() && IsIdent(params[end])) ++end;
      if (end > i) names.push_back(params.substr(i, end - i));
    }
  }
  return names;
}

// A function definition found by ForEachDefinition.
struct Definition {
  std::string name;
  std::string params;  // the text between the parentheses
  std::string body;    // from '{' to '}'
  size_t body_offset = 0;  // offset of body[0] in the file's code
};

// Calls `fn` with every function definition in `code` whose name satisfies
// `wanted`.
template <typename Wanted, typename Fn>
void ForEachDefinition(const std::string& code, Wanted&& wanted, Fn&& fn) {
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsIdent(code[i]) || (i > 0 && IsIdent(code[i - 1]))) continue;
    size_t end = i;
    while (end < code.size() && IsIdent(code[end])) ++end;
    const std::string ident = code.substr(i, end - i);
    if (!wanted(ident)) {
      i = end;
      continue;
    }
    const size_t open = SkipSpace(code, end);
    if (open >= code.size() || code[open] != '(') {
      i = end;
      continue;
    }
    const size_t close = MatchDelim(code, open, '(', ')');
    if (close == std::string::npos) {
      i = end;
      continue;
    }
    // Definition? Skip cv-qualifiers etc. until '{' or ';'.
    size_t p = close + 1;
    while (p < code.size()) {
      p = SkipSpace(code, p);
      if (p >= code.size() || code[p] == '{' || code[p] == ';' ||
          code[p] == '(' || code[p] == ',' || code[p] == ')') {
        break;
      }
      if (!IsIdent(code[p])) {
        p = std::string::npos;  // ':' of a ctor init list, '->', etc.
        break;
      }
      while (p < code.size() && IsIdent(code[p])) ++p;
    }
    if (p == std::string::npos || p >= code.size() || code[p] != '{') {
      i = end;
      continue;
    }
    const size_t body_close = MatchDelim(code, p, '{', '}');
    if (body_close == std::string::npos) {
      i = end;
      continue;
    }
    fn(Definition{ident, code.substr(open + 1, close - open - 1),
                  code.substr(p, body_close - p + 1), p});
    i = body_close;
  }
}

void CheckByteReaderOnly(const SourceFile& f,
                         std::vector<Finding>* findings) {
  const bool in_scope =
      f.virtual_path.find("src/compressors/") != std::string::npos ||
      f.virtual_path.find("src/encoding/") != std::string::npos ||
      f.virtual_path.find("src/store/") != std::string::npos;
  if (!in_scope) return;
  constexpr const char* kCheck = "fxrz-byte-reader-only";

  // Definitions of functions whose name mentions Decompress, Deserialize,
  // Decode or Parse.
  auto reads_bytes = [](const std::string& ident) {
    return ident.find("Decompress") != std::string::npos ||
           ident.find("Deserialize") != std::string::npos ||
           ident.find("Decode") != std::string::npos ||
           ident.find("Parse") != std::string::npos;
  };
  ForEachDefinition(f.code, reads_bytes, [&](const Definition& d) {
    const std::string& ident = d.name;
    const std::string& body = d.body;
    const size_t body_offset = d.body_offset;
    for (const std::string& param : UntrustedByteParams(d.params)) {
      // memcpy with the untrusted parameter in the source argument.
      for (size_t at = body.find("memcpy"); at != std::string::npos;
           at = body.find("memcpy", at + 1)) {
        if (!TokenAt(body, at, "memcpy")) continue;
        const size_t copen = SkipSpace(body, at + 6);
        if (copen >= body.size() || body[copen] != '(') continue;
        const size_t cclose = MatchDelim(body, copen, '(', ')');
        if (cclose == std::string::npos) continue;
        const std::vector<std::string> args = SplitArgs(body, copen, cclose);
        if (args.size() >= 2 && ContainsToken(args[1], param)) {
          findings->push_back(
              {f.display_path, f.LineOf(body_offset + at), kCheck,
               "raw memcpy from untrusted parameter '" + param + "' in " +
                   ident + "(); parse through ByteReader "
                   "(src/util/byte_reader.h)"});
        }
      }
      // reinterpret_cast of the untrusted parameter.
      for (size_t at = body.find("reinterpret_cast");
           at != std::string::npos;
           at = body.find("reinterpret_cast", at + 1)) {
        const size_t gt = body.find('>', at);
        if (gt == std::string::npos) continue;
        const size_t copen = SkipSpace(body, gt + 1);
        if (copen >= body.size() || body[copen] != '(') continue;
        const size_t cclose = MatchDelim(body, copen, '(', ')');
        if (cclose == std::string::npos) continue;
        if (ContainsToken(body.substr(copen, cclose - copen + 1), param)) {
          findings->push_back(
              {f.display_path, f.LineOf(body_offset + at), kCheck,
               "reinterpret_cast of untrusted parameter '" + param +
                   "' in " + ident + "(); parse through ByteReader"});
        }
      }
      // Direct indexing and manual cursor advances.
      for (size_t at = body.find(param); at != std::string::npos;
           at = body.find(param, at + 1)) {
        if (!TokenAt(body, at, param) || IsMemberAccess(body, at)) continue;
        const size_t after = SkipSpace(body, at + param.size());
        const bool indexed = after < body.size() && body[after] == '[';
        const bool advanced =
            (after + 1 < body.size() && body[after] == '+' &&
             (body[after + 1] == '=' || body[after + 1] == '+')) ||
            (at >= 2 && body[at - 1] == '+' && body[at - 2] == '+');
        if (indexed || advanced) {
          findings->push_back(
              {f.display_path, f.LineOf(body_offset + at), kCheck,
               std::string(indexed ? "direct indexing of"
                                   : "manual cursor advance on") +
                   " untrusted parameter '" + param + "' in " + ident +
                   "(); parse through ByteReader"});
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// fxrz-decode-output-for-overwrite
// ---------------------------------------------------------------------------

void CheckDecodeOutputForOverwrite(const SourceFile& f,
                                   std::vector<Finding>* findings) {
  if (f.virtual_path.find("src/compressors/") == std::string::npos) return;
  constexpr const char* kCheck = "fxrz-decode-output-for-overwrite";
  auto is_decoder = [](const std::string& ident) {
    return ident == "DoDecompress";
  };
  ForEachDefinition(f.code, is_decoder, [&](const Definition& d) {
    const std::string& body = d.body;
    // `Tensor name(` or `Tensor name{`.
    for (size_t at = body.find("Tensor"); at != std::string::npos;
         at = body.find("Tensor", at + 1)) {
      if (!TokenAt(body, at, "Tensor") || IsMemberAccess(body, at)) continue;
      const size_t name = SkipSpace(body, at + 6);
      size_t end = name;
      while (end < body.size() && IsIdent(body[end])) ++end;
      if (end == name) continue;
      const size_t open = SkipSpace(body, end);
      if (open < body.size() && (body[open] == '(' || body[open] == '{')) {
        findings->push_back(
            {f.display_path, f.LineOf(d.body_offset + at), kCheck,
             "zero-filling Tensor construction '" +
                 body.substr(name, end - name) +
                 "' in DoDecompress(); build the output with "
                 "Tensor::ForOverwrite and let the decode write it first"});
      }
    }
  });
}

// ---------------------------------------------------------------------------

SourceFile LoadFile(const std::string& path, const std::string& display,
                    const std::string& virt) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "fxrz_lint: cannot read " << path << "\n";
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  SourceFile f;
  f.display_path = display;
  f.virtual_path = virt;
  f.raw = ss.str();
  f.code = StripCommentsAndLiterals(f.raw);
  f.line_starts.push_back(0);
  for (size_t i = 0; i < f.raw.size(); ++i) {
    if (f.raw[i] == '\n') f.line_starts.push_back(i + 1);
  }
  return f;
}

std::string NormalizeSlashes(std::string s) {
  std::replace(s.begin(), s.end(), '\\', '/');
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string treat_as;
  std::vector<std::string> expect;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "fxrz_lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = value("--root");
    } else if (arg == "--treat-as") {
      treat_as = value("--treat-as");
    } else if (arg == "--expect") {
      std::string list = value("--expect");
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const std::string item =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!item.empty()) expect.push_back(item);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: fxrz_lint [--root DIR] [--treat-as VPATH] "
                   "[--expect CHECKS] PATH...\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "fxrz_lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "fxrz_lint: no files or directories given\n";
    return 2;
  }

  // Expand directories into .cc/.h files.
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".cc" || ext == ".h") {
          files.push_back(entry.path().string());
        }
      }
    } else {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const std::string& file : files) {
    std::string display = NormalizeSlashes(file);
    if (!root.empty()) {
      std::error_code ec;
      const fs::path rel = fs::relative(file, root, ec);
      if (!ec && !rel.empty() && rel.native()[0] != '.') {
        display = NormalizeSlashes(rel.string());
      }
    }
    const std::string virt =
        treat_as.empty() ? display : NormalizeSlashes(treat_as);
    const SourceFile f = LoadFile(file, display, virt);
    CheckByteReaderOnly(f, &findings);
    CheckDecodeOutputForOverwrite(f, &findings);
    CheckSharedState(f, &findings);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.check < b.check;
            });
  for (const Finding& f : findings) {
    std::cout << f.path << ":" << f.line << ": [" << f.check << "] "
              << f.message << "\n";
  }

  if (!expect.empty()) {
    bool satisfied = true;
    for (const std::string& check : expect) {
      const bool hit =
          std::any_of(findings.begin(), findings.end(),
                      [&](const Finding& f) { return f.check == check; });
      if (!hit) {
        std::cerr << "fxrz_lint: expected at least one " << check
                  << " finding, got none\n";
        satisfied = false;
      }
    }
    std::cout << "fxrz_lint: " << findings.size() << " finding(s), expect "
              << (satisfied ? "satisfied" : "NOT satisfied") << "\n";
    return satisfied ? 0 : 1;
  }

  if (!findings.empty()) {
    std::cerr << "fxrz_lint: " << findings.size() << " finding(s)\n";
    return 1;
  }
  std::cout << "fxrz_lint: clean (" << files.size() << " files)\n";
  return 0;
}
