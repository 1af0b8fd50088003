#!/usr/bin/env python3
"""Counts production and test lines of Rust per crate.

Rule:
  * production is every line of a file before its first `#[cfg(test)]`;
  * test is that line and everything after it, plus every file under a
    `tests/` or `benches/` directory;
  * `perfbench/`, `shims/` and `target/` (and any other build directory
    starting with `.` or named `target`) are not counted.

A crate is the directory holding the nearest `Cargo.toml`; files of the
root package are listed as `.`. Blank and comment lines count like any
other line.

Usage (from anywhere; standard library only):

    python3 tools/rust_lines.py            # the working tree
    python3 tools/rust_lines.py <root>     # another checkout
"""

import os
import sys

EXCLUDED_TOP = {"perfbench", "shims", "target"}
TEST_DIRS = {"tests", "benches"}


def rust_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        parts = [] if rel == "." else rel.split(os.sep)
        if parts and parts[0] in EXCLUDED_TOP:
            dirnames[:] = []
            continue
        dirnames[:] = sorted(
            d for d in dirnames if not d.startswith(".") and d != "target"
        )
        for name in sorted(filenames):
            if name.endswith(".rs"):
                yield os.path.join(dirpath, name)


def crate_of(path, root):
    d = os.path.dirname(path)
    while True:
        if os.path.exists(os.path.join(d, "Cargo.toml")):
            return os.path.relpath(d, root)
        if os.path.samefile(d, root):
            return "."
        d = os.path.dirname(d)


def split_lines(path, crate_dir):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    inner = os.path.relpath(path, crate_dir).split(os.sep)
    if TEST_DIRS.intersection(inner[:-1]):
        return 0, len(lines)
    for i, line in enumerate(lines):
        if line.strip() == "#[cfg(test)]":
            return i, len(lines) - i
    return len(lines), 0


def count(root):
    per_crate = {}
    for path in rust_files(root):
        crate = crate_of(path, root)
        prod, test = split_lines(path, os.path.join(root, crate))
        p, t = per_crate.get(crate, (0, 0))
        per_crate[crate] = (p + prod, t + test)
    return per_crate


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    per_crate = count(root)
    width = max(len(c) for c in per_crate) if per_crate else 5
    print(f"{'crate':<{width}} {'production':>10} {'test':>8}")
    for crate in sorted(per_crate):
        prod, test = per_crate[crate]
        print(f"{crate:<{width}} {prod:>10} {test:>8}")
    prod = sum(p for p, _ in per_crate.values())
    test = sum(t for _, t in per_crate.values())
    print(f"{'total':<{width}} {prod:>10} {test:>8}")


if __name__ == "__main__":
    main()
