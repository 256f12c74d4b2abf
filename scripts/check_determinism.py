#!/usr/bin/env python3
"""Determinism-contract linter for the DiffServe serving stack.

The reproduction's core guarantee is that serving *decisions* are a pure
function of (trace, seed, config): the DES and the threaded runtime must
produce bit-identical routing, batching, and allocation choices, and a
cluster run must replay exactly. That contract is easy to break with one
innocent-looking line — a wall-clock read feeding a decision, an ambient
RNG, or an iteration order that depends on pointer values or hash
seeding. This linter scans the decision-path directories for the known
footguns:

  wall-clock                  std::chrono wall/monotonic clock reads (or
                              C time APIs) outside util::TraceClock. Time
                              in decision code must come from the engine
                              clock, which both runtimes advance
                              identically.
  ambient-random              std::rand/srand/std::random_device. All
                              randomness must flow from util::Rng seeded
                              by config.
  unordered-iteration         range-for over a std::unordered_map/set.
                              Iteration order is unspecified and varies
                              across libstdc++ versions and hash seeds,
                              so anything order-sensitive downstream
                              diverges.
  pointer-keyed-ordered       std::map/std::set keyed by a pointer type.
                              Ordered-by-address is allocation-order
                              dependent, which ASLR randomizes.
  float-accumulation-unordered  `+=` accumulation inside an
                              unordered-container range-for. Floating
                              addition does not commute, so even an
                              order-insensitive *set* of contributions
                              yields run-dependent sums.

Escape hatch — a justified annotation on the offending line or the line
directly above it:

    // ds-lint: allow(wall-clock): watchdog timeout, never feeds a decision

The reason after the second colon is mandatory; a bare allow is itself
reported (rule `bad-allow`). Unknown rule names in an allow are also
reported, so annotations cannot rot silently.

Usage:
    scripts/check_determinism.py            # lint the decision-path dirs
    scripts/check_determinism.py PATH...    # lint specific files/dirs
    scripts/check_determinism.py --self-test
        Run against scripts/lint_fixtures/: every *_violation.cc fixture
        must trip exactly its named rule, and allowed_clean.cc must pass.

Exit status 0 = clean, 1 = findings, 2 = usage/self-test harness error.
Stdlib only; no compiler needed (this runs before the build in CI).
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Decision-path directories: everything that computes what the system
# *does* (routing, caching, batching, allocation, cluster control).
# Telemetry-only code (bench/, tools/) and infrastructure (net/, util/)
# are out of scope — wall clocks are legitimate there.
DEFAULT_DIRS = [
    "src/engine",
    "src/cache",
    "src/serving",
    "src/cluster",
    "src/control",
    "src/milp",
]

SOURCE_EXTS = (".cpp", ".hpp", ".cc", ".h")

ALLOW_RE = re.compile(
    r"//\s*ds-lint:\s*allow\(\s*(?P<rule>[a-z-]+)\s*\)\s*(?::\s*(?P<reason>.*\S)?)?"
)

# --- per-line pattern rules -------------------------------------------------

WALL_CLOCK_RE = re.compile(
    r"(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\bstd::time\s*\("
    r"|(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"
)

AMBIENT_RANDOM_RE = re.compile(
    r"\bstd::rand\b|\bstd::srand\b|(?<![\w:])srand\s*\(|\brandom_device\b"
)

# std::map/std::set whose first template argument is a pointer type:
# `std::map<Foo*, ...>`, `std::set<const Bar *>`. The first-argument slice
# deliberately excludes ',' '<' '>' so smart pointers and nested templates
# (std::map<int, Foo*>) don't match.
POINTER_KEYED_RE = re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<\s*[^,<>]*\*\s*[,>]")

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s*[&*]?\s*"
    r"(\w+)\s*[;={(\[),]"
)

FLOAT_ACCUM_RE = re.compile(r"[\w\]\.\->]+\s*\+=")

STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"' + r"|'(?:[^'\\]|\\.)'")


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


KNOWN_RULES = {
    "wall-clock",
    "ambient-random",
    "unordered-iteration",
    "pointer-keyed-ordered",
    "float-accumulation-unordered",
}


def split_code_comment(line, in_block):
    """Return (code, line_comment, in_block) with strings blanked.

    `code` is the executable portion with string literals replaced by
    `""` so patterns never match inside log text; `line_comment` is the
    text of a trailing `//` comment (where ds-lint annotations live).
    Block comments are elided from code and never carry annotations.
    """
    code_parts = []
    comment = ""
    i = 0
    line = STRING_RE.sub('""', line)
    n = len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(code_parts), comment, True
            i = end + 2
            in_block = False
            continue
        start_line = line.find("//", i)
        start_block = line.find("/*", i)
        if start_line >= 0 and (start_block < 0 or start_line < start_block):
            code_parts.append(line[i:start_line])
            comment = line[start_line:]
            break
        if start_block >= 0:
            code_parts.append(line[i:start_block])
            i = start_block + 2
            in_block = True
            continue
        code_parts.append(line[i:])
        break
    return "".join(code_parts), comment, in_block


def parse_allows(comment, path, line_no, findings):
    """Extract allow annotations from a comment; report malformed ones."""
    allows = set()
    for m in ALLOW_RE.finditer(comment):
        rule, reason = m.group("rule"), m.group("reason")
        if rule not in KNOWN_RULES:
            findings.append(
                Finding(path, line_no, "bad-allow", f"unknown rule '{rule}' in ds-lint allow")
            )
            continue
        if not reason:
            findings.append(
                Finding(
                    path,
                    line_no,
                    "bad-allow",
                    f"ds-lint allow({rule}) needs a justification after ':'",
                )
            )
            continue
        allows.add(rule)
    return allows


def collect_unordered_names(lines):
    names = set()
    in_block = False
    for raw in lines:
        code, _, in_block = split_code_comment(raw, in_block)
        for m in UNORDERED_DECL_RE.finditer(code):
            names.add(m.group(1))
    return names


def sibling_header_lines(path):
    """Declarations often live in the paired header; fold them in so a
    .cpp iterating a member declared in its .hpp is still caught."""
    stem, ext = os.path.splitext(path)
    if ext not in (".cpp", ".cc"):
        return []
    for hext in (".hpp", ".h"):
        header = stem + hext
        if os.path.isfile(header):
            with open(header, encoding="utf-8", errors="replace") as f:
                return f.read().splitlines()
    return []


def find_range_fors(code):
    """Yield the range expression of each range-based `for` on this line.

    A regex can't find the for-clause's closing paren once the range
    expression contains calls, so match parens by hand: the range is the
    text between the last depth-1 single `:` and the paren that closes
    the clause. A depth-1 `;` means a classic three-clause for — skip it.
    """
    out = []
    for m in re.finditer(r"\bfor\s*\(", code):
        i = m.end()
        depth = 1
        colon = -1
        classic = False
        while i < len(code) and depth:
            c = code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == ";" and depth == 1:
                classic = True
                break
            elif (
                c == ":"
                and depth == 1
                and (i == 0 or code[i - 1] != ":")
                and (i + 1 >= len(code) or code[i + 1] != ":")
            ):
                colon = i
            i += 1
        if depth == 0 and colon >= 0 and not classic:
            out.append(code[colon + 1 : i - 1])
    return out


def range_expr_is_unordered(expr, unordered_names):
    expr = expr.strip()
    if "unordered_" in expr:
        return True
    # Resolve `foo_`, `x.foo_`, `p->foo_` down to the final identifier.
    m = re.search(r"(\w+)\s*(?:\(\s*\))?\s*$", expr)
    return bool(m) and m.group(1) in unordered_names


def lint_file(path, rel):
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()

    unordered_names = collect_unordered_names(lines)
    unordered_names |= collect_unordered_names(sibling_header_lines(path))

    findings = []
    # allow annotations on their own line apply to the next code line
    pending_allows = set()
    in_block = False
    # stack of brace depths at which an unordered range-for body began
    unordered_loop_depths = []
    depth = 0

    for idx, raw in enumerate(lines, start=1):
        code, comment, in_block = split_code_comment(raw, in_block)
        allows = parse_allows(comment, rel, idx, findings)
        if not code.strip():
            # comment-only line: its allows carry to the next code line
            pending_allows |= allows
            continue
        active = allows | pending_allows
        pending_allows = set()

        line_findings = []

        if WALL_CLOCK_RE.search(code):
            line_findings.append(
                (
                    "wall-clock",
                    "wall-clock read in decision-path code; use the engine's "
                    "util::TraceClock-derived time",
                )
            )
        if AMBIENT_RANDOM_RE.search(code):
            line_findings.append(
                (
                    "ambient-random",
                    "ambient randomness; draw from a config-seeded util::Rng",
                )
            )
        if POINTER_KEYED_RE.search(code):
            line_findings.append(
                (
                    "pointer-keyed-ordered",
                    "ordered container keyed by pointer; iteration order "
                    "depends on allocation addresses",
                )
            )

        for range_expr in find_range_fors(code):
            if range_expr_is_unordered(range_expr, unordered_names):
                line_findings.append(
                    (
                        "unordered-iteration",
                        "range-for over an unordered container; order is "
                        "unspecified — iterate a sorted view or an ordered "
                        "container",
                    )
                )
                unordered_loop_depths.append(depth)

        if unordered_loop_depths and FLOAT_ACCUM_RE.search(code) and "+=" in code:
            line_findings.append(
                (
                    "float-accumulation-unordered",
                    "accumulation inside unordered iteration; float addition "
                    "does not commute, so the sum is order-dependent",
                )
            )

        for rule, msg in line_findings:
            if rule not in active:
                findings.append(Finding(rel, idx, rule, msg))

        # Track brace depth to know when unordered loop bodies end. A
        # braceless single-statement body closes on the first line that
        # doesn't open a brace — approximate by popping when depth
        # returns to the loop's level after having gone deeper, or
        # immediately if the loop line itself is self-contained.
        opens = code.count("{")
        closes = code.count("}")
        depth += opens - closes
        while unordered_loop_depths and depth <= unordered_loop_depths[-1] and (
            closes > 0 or opens == 0
        ):
            unordered_loop_depths.pop()

    return findings


def iter_sources(paths):
    for p in paths:
        if os.path.isfile(p):
            yield p
        else:
            for root, _, files in os.walk(p):
                for name in sorted(files):
                    if name.endswith(SOURCE_EXTS):
                        yield os.path.join(root, name)


def run_lint(paths):
    findings = []
    for path in iter_sources(paths):
        rel = os.path.relpath(path, REPO_ROOT)
        findings.extend(lint_file(path, rel))
    return findings


def self_test():
    """Fixtures are the linter's own regression suite: every rule must
    still fire on its seeded violation, and the annotated file must pass."""
    fixture_dir = os.path.join(REPO_ROOT, "scripts", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"self-test: missing fixture dir {fixture_dir}", file=sys.stderr)
        return 2
    expected = {
        "wall_clock_violation.cc": "wall-clock",
        "ambient_random_violation.cc": "ambient-random",
        "unordered_iteration_violation.cc": "unordered-iteration",
        "pointer_keyed_violation.cc": "pointer-keyed-ordered",
        "float_accumulation_violation.cc": "float-accumulation-unordered",
        "bad_allow_violation.cc": "bad-allow",
    }
    failures = []
    for name, rule in sorted(expected.items()):
        path = os.path.join(fixture_dir, name)
        if not os.path.isfile(path):
            failures.append(f"missing fixture {name}")
            continue
        rules = {f.rule for f in lint_file(path, name)}
        if rule not in rules:
            failures.append(f"{name}: expected rule '{rule}' to fire, got {sorted(rules)}")
    clean = os.path.join(fixture_dir, "allowed_clean.cc")
    if not os.path.isfile(clean):
        failures.append("missing fixture allowed_clean.cc")
    else:
        leftover = lint_file(clean, "allowed_clean.cc")
        if leftover:
            failures.append(
                "allowed_clean.cc: annotated violations still reported: "
                + "; ".join(str(f) for f in leftover)
            )
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 2
    print(f"self-test OK: {len(expected)} violation fixtures fire, annotated file passes")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    targets = [os.path.join(REPO_ROOT, d) for d in (argv or DEFAULT_DIRS)]
    for t in targets:
        if not os.path.exists(t):
            print(f"no such path: {t}", file=sys.stderr)
            return 2
    findings = run_lint(targets)
    for f in findings:
        print(f)
    if findings:
        print(
            f"\n{len(findings)} determinism-contract violation(s). Fix them or, "
            "if the read provably never feeds a serving decision, annotate:\n"
            "  // ds-lint: allow(<rule>): <why this cannot affect decisions>",
            file=sys.stderr,
        )
        return 1
    print("determinism lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
