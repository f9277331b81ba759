#!/usr/bin/env python3
# Copyright 2026 The gkmeans Authors.
"""Determinism lint for the gkmeans tree.

The library's contract is that results — cluster assignments, checkpoint
bytes, journal digests — are a pure function of the input stream and the
seeds in the params structs (docs/determinism.md). This lint rejects the
source patterns that silently break that contract:

  banned-random    rand()/std::random_device/std:: <random> engines and
                   distributions anywhere in src/ outside src/common/rng.*
                   — all randomness flows through the seeded gkm::Rng.
  banned-clock     std::chrono / clock_gettime / gettimeofday / time()
                   outside the files allowlisted below — wall/steady time
                   must never feed model state, only telemetry and waits.
  unordered-state  std::unordered_map/set in the state-carrying dirs
                   (src/stream, src/graph, src/core, src/kmeans,
                   src/anns): hash-iteration order is libstdc++-version
                   dependent, so anything iterated out of one can leak
                   nondeterminism into checkpointed state. Membership-only
                   use is possible but too easy to get wrong near state;
                   use a sorted vector or justify with a det-ok comment.
  fma-outside-kernels
                   explicit FMA (std::fma, __builtin_fma, _mm*fmadd)
                   outside src/common/kernels.cc — contraction changes
                   rounding, and only the kernels file pins the scalar
                   reference path it must match bit-for-bit.
  fp-contract      CMakeLists.txt must compile the library with
                   -ffp-contract=off (GCC defaults to =fast, which may
                   fuse a*b+c differently across targets).
  stats-hygiene    arguments of GKM_COUNTER_ADD / GKM_GAUGE_SET /
                   GKM_HISTOGRAM_RECORD / GKM_TRACE_SPAN must be free of
                   side effects (++/--/assignment): the macros expand to
                   nothing under GKM_NO_STATS, so a side effect in an
                   argument would make the no-stats build diverge.

Suppression: append `// det-ok: <reason>` to a line to exempt it. A bare
`det-ok` with no reason is itself an error — the justification is the
point. File-level exemptions for banned-clock live in CLOCK_ALLOWLIST
below, each with its reason.

Usage:
  tools/check_determinism.py [repo_root]   # lint the tree (default: repo)
  tools/check_determinism.py --self-test   # verify every rule still fires
"""

import os
import re
import sys
import tempfile

# Files allowed to touch clock APIs, with why. Everything here is timing
# control or telemetry — none of these values reach checkpointed state.
CLOCK_ALLOWLIST = {
    "src/obs/clock.h": "the tree's single steady-clock source",
    "src/obs/sampler.h": "sampler cadence (chrono::milliseconds period) "
                         "and scrape deadlines — telemetry only",
    "src/common/mutex.h": "CondVar::WaitFor duration parameter — a wait "
                          "bound, never model state",
    "src/common/thread_pool.h": "worker idle-wait bounds — never model "
                                "state",
}

# Randomness may only live in the seeded generator itself.
RNG_ALLOWLIST = ("src/common/rng.h", "src/common/rng.cc")

# Dirs whose containers can end up in checkpoints/journals.
STATE_DIRS = ("src/stream/", "src/graph/", "src/core/", "src/kmeans/",
              "src/anns/")

KERNELS_FILE = "src/common/kernels.cc"

RANDOM_RE = re.compile(
    r"\b(?:std::)?(?:s?rand)\s*\(|std::random_device|std::mt19937"
    r"|std::minstd_rand|std::default_random_engine"
    r"|std::(?:uniform_int|uniform_real|normal|bernoulli)_distribution")
CLOCK_RE = re.compile(
    r"std::chrono|\bclock_gettime\s*\(|\bgettimeofday\s*\("
    r"|\btime\s*\(\s*(?:nullptr|NULL|0)?\s*\)")
UNORDERED_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)")
FMA_RE = re.compile(r"\bstd::fma[fl]?\s*\(|__builtin_fmaf?\b"
                    r"|_mm\d*_(?:fn?madd|fn?msub)_p[sd]\b")
STATS_MACRO_RE = re.compile(
    r"\b(GKM_COUNTER_ADD|GKM_GAUGE_SET|GKM_HISTOGRAM_RECORD"
    r"|GKM_TRACE_SPAN)\s*\(")
SIDE_EFFECT_RE = re.compile(
    r"\+\+|--|(?<![=!<>+\-*/&|^])=(?![=])")
DET_OK_RE = re.compile(r"//\s*det-ok(?P<reason>:.*)?$")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so tokens inside them never match."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:end]))
            i = end
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append(" " if text[i] != "\n" else "\n")
                    i += 1
            out.append(" ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def macro_args(code, start):
    """Returns the balanced-paren argument text starting at code[start]
    (which must be '('), or None if unbalanced."""
    depth = 0
    for i in range(start, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[start + 1:i]
    return None


def lint_file(rel, text, violations):
    code = strip_comments_and_strings(text)
    raw_lines = text.splitlines()
    code_lines = code.splitlines()

    def check(lineno, rule, message):
        raw = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
        m = DET_OK_RE.search(raw)
        if m:
            if not m.group("reason") or not m.group("reason")[1:].strip():
                violations.append((rel, lineno, "det-ok",
                                   "bare det-ok without a reason"))
            return
        violations.append((rel, lineno, rule, message))

    in_state_dir = any(rel.startswith(d) for d in STATE_DIRS)
    for idx, line in enumerate(code_lines, start=1):
        if rel not in RNG_ALLOWLIST and RANDOM_RE.search(line):
            check(idx, "banned-random",
                  "randomness outside src/common/rng.* — use the seeded "
                  "gkm::Rng")
        if rel not in CLOCK_ALLOWLIST and CLOCK_RE.search(line):
            check(idx, "banned-clock",
                  "clock API outside the allowlist — time must never "
                  "feed model state (see gkm::obs::MonotonicNanos)")
        if in_state_dir and UNORDERED_RE.search(line):
            check(idx, "unordered-state",
                  "unordered container in a state-carrying dir — "
                  "iteration order is not deterministic across stdlibs")
        if rel != KERNELS_FILE and FMA_RE.search(line):
            check(idx, "fma-outside-kernels",
                  "explicit FMA outside src/common/kernels.cc changes "
                  "rounding vs the scalar reference path")

    for m in STATS_MACRO_RE.finditer(code):
        args = macro_args(code, m.end() - 1)
        if args is None:
            continue
        if SIDE_EFFECT_RE.search(args):
            lineno = code.count("\n", 0, m.start()) + 1
            check(lineno, "stats-hygiene",
                  f"side effect in {m.group(1)} argument — it vanishes "
                  "under GKM_NO_STATS")


def lint_tree(root):
    violations = []
    src = os.path.join(root, "src")
    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                lint_file(rel, f.read(), violations)
    cmake = os.path.join(root, "CMakeLists.txt")
    if os.path.exists(cmake):
        with open(cmake, encoding="utf-8") as f:
            if "-ffp-contract=off" not in f.read():
                violations.append(
                    ("CMakeLists.txt", 0, "fp-contract",
                     "library must be compiled with -ffp-contract=off"))
    return violations


def self_test():
    """Seeds one violation per rule into a scratch tree and asserts the
    lint flags each — so a refactor of the regexes cannot silently turn
    the lint into a no-op."""
    cases = {
        "src/stream/bad_random.cc": (
            "int f() { return std::mt19937(7)(); }\n", "banned-random"),
        "src/stream/bad_clock.cc": (
            "auto t = std::chrono::steady_clock::now();\n", "banned-clock"),
        "src/stream/bad_unordered.h": (
            "#include <unordered_map>\n"
            "std::unordered_map<int, int> state_;\n", "unordered-state"),
        "src/stream/bad_fma.cc": (
            "double g(double a) { return std::fma(a, a, 1.0); }\n",
            "fma-outside-kernels"),
        "src/stream/bad_stats.cc": (
            "void h(int n) { GKM_COUNTER_ADD(\"x\", ++n); }\n",
            "stats-hygiene"),
        "src/stream/bad_det_ok.cc": (
            "auto t = std::chrono::seconds(1);  // det-ok\n", "det-ok"),
    }
    clean = {
        # Comments, strings, and justified suppressions must not fire.
        "src/stream/fine.cc":
            "// mentions std::chrono and rand() in a comment only\n"
            "const char* s = \"std::random_device\";\n"
            "auto d = std::chrono::seconds(1);  // det-ok: test fixture\n"
            "void h(long n) { GKM_COUNTER_ADD(\"x\", n * 2); }\n",
    }
    failures = []
    with tempfile.TemporaryDirectory() as root:
        for rel, (text, _) in {**cases,
                               **{k: (v, None) for k, v in clean.items()}
                               }.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        with open(os.path.join(root, "CMakeLists.txt"), "w",
                  encoding="utf-8") as f:
            f.write("# no contract flag here\n")
        found = lint_tree(root)
        rules_hit = {(rel, rule) for rel, _, rule, _ in found}
        for rel, (_, rule) in cases.items():
            if (rel, rule) not in rules_hit:
                failures.append(f"expected {rule} to fire on {rel}")
        if ("CMakeLists.txt", "fp-contract") not in rules_hit:
            failures.append("expected fp-contract to fire")
        for rel in clean:
            hits = [v for v in found if v[0] == rel]
            if hits:
                failures.append(f"false positive on {rel}: {hits}")
    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print("self-test ok: every rule fires and clean code passes")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--self-test":
        return self_test()
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    violations = lint_tree(root)
    for rel, lineno, rule, message in violations:
        print(f"{rel}:{lineno}: [{rule}] {message}", file=sys.stderr)
    if violations:
        print(f"\n{len(violations)} determinism violation(s). Fix them or "
              "append '// det-ok: <reason>'.", file=sys.stderr)
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
