#!/usr/bin/env python3
"""Dead-link checker for the repo documentation.

Scans README.md, ROADMAP.md, and every Markdown file under docs/ for
relative Markdown links ([text](path), with optional #fragment) and fails
when a target does not exist on disk. External links (http/https/mailto)
and pure in-page fragments (#section) are skipped — this gate is about the
repo's own files, which refactors silently break.

Also scans the comments of every source file under src/, tests/ and bench/
for cited Markdown paths (`docs/EXPERIMENTS.md`, `README.md`, ...), which
must exist relative to the repo root or to the citing file.

Usage:
  scripts/check_docs_links.py [repo-root]   (default: the script's parent)

Exit status: 0 when every relative link resolves, 1 otherwise.
"""

import pathlib
import re
import sys

# [text](target) — target captured up to the closing paren; images too.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
# A Markdown path cited in a // comment.
COMMENT_MD_RE = re.compile(r"//.*")
MD_PATH_RE = re.compile(r"[A-Za-z0-9_./-]+\.md\b")
SOURCE_DIRS = ("src", "tests", "bench")
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")


def collect_files(root):
    files = [root / "README.md", root / "ROADMAP.md"]
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return [f for f in files if f.is_file()]


def check_source_citations(root):
    """Returns (checked, broken) for *.md paths cited in source comments."""
    broken = []
    checked = 0
    for top in SOURCE_DIRS:
        for source in sorted((root / top).rglob("*")):
            if source.suffix not in SOURCE_SUFFIXES or not source.is_file():
                continue
            text = source.read_text(encoding="utf-8")
            for line_number, line in enumerate(text.splitlines(), 1):
                comment = COMMENT_MD_RE.search(line)
                if not comment:
                    continue
                for cited in MD_PATH_RE.findall(comment.group(0)):
                    checked += 1
                    if not ((root / cited).exists() or (source.parent / cited).exists()):
                        broken.append(f"{source.relative_to(root)}:{line_number}: "
                                      f"cites missing '{cited}'")
    return checked, broken


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    broken = []
    checked = 0
    for doc in collect_files(root):
        for line_number, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(SKIP_PREFIXES):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (doc.parent / path).resolve()
                checked += 1
                if not resolved.exists():
                    broken.append(f"{doc.relative_to(root)}:{line_number}: "
                                  f"dead link '{target}'")
    cited, broken_citations = check_source_citations(root)
    broken.extend(broken_citations)
    for issue in broken:
        print(issue)
    if broken:
        print(f"\nFAIL: {len(broken)} dead relative link(s) or citation(s)")
        return 1
    print(f"OK: {checked} relative links and {cited} source citations resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
