#!/usr/bin/env python3
"""Documentation hygiene checks, run by the CI `docs` job.

1. Every relative markdown link in README.md and docs/*.md must point at a
   file (or directory) that exists in the repo. External links (http/https/
   mailto) and pure in-page anchors are skipped; `path#anchor` links are
   checked for the path part only.
2. docs/ARCHITECTURE.md must mention every subdirectory of src/ — the
   architecture tour may not silently fall behind the code layout.
3. Every `BENCH_<name>.json` producer in bench/ (a `JsonReport("<name>")`
   construction) must be documented in EXPERIMENTS.md by its literal
   output filename — a new bench may not land without its experiments
   section. `<name>_no_inprocess` variants count as their base name.
4. Every trace span or counter name passed as a string literal to
   TRACE_SPAN, TRACE_COUNTER, counterAdd/Set/Max or
   addCounter/setCounter/maxCounter under src/ and tools/ must appear in
   backticks in docs/TRACE_FORMAT.md. Names built at run time are
   documented by hand.
5. The converse: every backticked name in the first column of a
   docs/TRACE_FORMAT.md table row must occur as a string literal under src/
   or tools/, so a row cannot outlive the code that recorded it. Names
   containing `<` are placeholders for names built at run time and are
   skipped.

Exits non-zero with one line per problem.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# [text](target) links, excluding images' inner brackets edge cases; good
# enough for the hand-written markdown in this repo.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def doc_files():
    files = [REPO / "README.md"]
    docs = REPO / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return [f for f in files if f.is_file()]


def check_links(path, errors):
    text = path.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = (path.parent / rel).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO)}: broken link -> {target}")


def check_architecture_coverage(errors):
    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not arch.is_file():
        errors.append("docs/ARCHITECTURE.md is missing")
        return
    text = arch.read_text(encoding="utf-8")
    for sub in sorted(p.name for p in (REPO / "src").iterdir() if p.is_dir()):
        if f"src/{sub}" not in text:
            errors.append(f"docs/ARCHITECTURE.md: no section mentions src/{sub}")


# `JsonReport("name")` / `JsonReport(cond ? "a" : "b", jobs)` constructions;
# DOTALL because the argument list may wrap across lines. Declarations taking
# a JsonReport& parameter contain no string literal and never match.
JSON_REPORT_RE = re.compile(r'JsonReport\s+\w+\s*\(([^;]*?)\)\s*;', re.DOTALL)
NAME_RE = re.compile(r'"([a-z0-9_]+)"')


def check_bench_coverage(errors):
    experiments = REPO / "EXPERIMENTS.md"
    bench = REPO / "bench"
    if not bench.is_dir():
        return
    if not experiments.is_file():
        errors.append("EXPERIMENTS.md is missing")
        return
    text = experiments.read_text(encoding="utf-8")
    for src in sorted(bench.glob("*.cpp")):
        names = set()
        for ctor in JSON_REPORT_RE.finditer(src.read_text(encoding="utf-8")):
            names.update(NAME_RE.findall(ctor.group(1)))
        for name in sorted(names):
            base = name.removesuffix("_no_inprocess")
            if f"BENCH_{base}.json" not in text:
                errors.append(
                    f"{src.relative_to(REPO)}: writes BENCH_{base}.json but "
                    f"EXPERIMENTS.md never mentions it"
                )


# The first argument of a trace call when it is a string literal; \s* spans
# a call whose argument list wraps onto the next line.
TRACE_NAME_RE = re.compile(
    r'\b(?:TRACE_SPAN|TRACE_COUNTER|counter(?:Add|Set|Max)|'
    r'(?:add|set|max)Counter)\s*\(\s*"([^"]+)"'
)


def check_trace_names(errors):
    trace_doc = REPO / "docs" / "TRACE_FORMAT.md"
    if not trace_doc.is_file():
        errors.append("docs/TRACE_FORMAT.md is missing")
        return
    text = trace_doc.read_text(encoding="utf-8")
    for top in ("src", "tools"):
        for src in sorted((REPO / top).rglob("*.[ch]pp")):
            names = set(TRACE_NAME_RE.findall(src.read_text(encoding="utf-8")))
            for name in sorted(n for n in names if f"`{n}`" not in text):
                errors.append(
                    f"{src.relative_to(REPO)}: trace name `{name}` is not "
                    f"documented in docs/TRACE_FORMAT.md"
                )


STRING_LITERAL_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
TABLE_NAME_RE = re.compile(r"`([^`]+)`")


def check_trace_rows(errors):
    trace_doc = REPO / "docs" / "TRACE_FORMAT.md"
    if not trace_doc.is_file():
        return  # reported by check_trace_names
    literals = set()
    for top in ("src", "tools"):
        for src in (REPO / top).rglob("*.[ch]pp"):
            literals.update(
                STRING_LITERAL_RE.findall(src.read_text(encoding="utf-8")))
    for line in trace_doc.read_text(encoding="utf-8").splitlines():
        cells = line.split("|")
        if not line.startswith("|") or len(cells) < 3:
            continue
        for name in TABLE_NAME_RE.findall(cells[1]):
            if "<" not in name and name not in literals:
                errors.append(
                    f"docs/TRACE_FORMAT.md: table row names `{name}`, which "
                    f"no string literal under src/ or tools/ records"
                )


def main():
    errors = []
    files = doc_files()
    if not files:
        errors.append("no documentation files found (README.md, docs/*.md)")
    for f in files:
        check_links(f, errors)
    check_architecture_coverage(errors)
    check_bench_coverage(errors)
    check_trace_names(errors)
    check_trace_rows(errors)
    if errors:
        for e in errors:
            print(f"check_docs: {e}", file=sys.stderr)
        return 1
    names = ", ".join(str(f.relative_to(REPO)) for f in files)
    print(f"check_docs: OK ({names})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
