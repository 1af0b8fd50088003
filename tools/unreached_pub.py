#!/usr/bin/env python3
"""Lists the library `pub` items that nothing outside their own file names.

Rule:
  * an item is a `pub fn`, `struct`, `enum`, `trait`, `const`, `static` or
    `type` in a library source: a file under `src/` or `crates/*/src/`,
    not under a `bin/` directory, in its production part (the lines before
    its first `#[cfg(test)]`, as `tools/rust_lines.py` splits a file);
  * it is unreached when no other `.rs` file mentions its name as a word:
    tests, examples and `perfbench/` count, comments included; `shims/`,
    `target/` and build directories (`.*`, `target`) are not read.

A name may be reached without being named: the type of a public field is
read through the field. Such names go in ALLOWED. The exit status is 1 if
any other name is unreached, so a check can fail on a new one.

Usage (from anywhere; standard library only):

    python3 tools/unreached_pub.py            # the working tree
    python3 tools/unreached_pub.py <root>     # another checkout
"""

import os
import re
import sys

from rust_lines import rust_files, split_lines, crate_of

# Reached only as the types of `ldp_bench::fleet::Cell`'s public fields.
ALLOWED = {"Gates", "Phases"}

ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"[^\"]*\")\s+)*"
    r"(?:(fn|struct|enum|trait|type)\s+(\w+)|(const|static)\s+(?:mut\s+)?(\w+)\s*:)"
)
WORD = re.compile(r"\w+")


def is_library(rel):
    parts = rel.split(os.sep)
    if "bin" in parts[:-1]:
        return False
    return parts[0] == "src" or (
        len(parts) > 3 and parts[0] == "crates" and parts[2] == "src"
    )


def items(path, root):
    prod, _ = split_lines(path, os.path.join(root, crate_of(path, root)))
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()[:prod]
    for number, line in enumerate(lines, 1):
        m = ITEM.match(line)
        if m:
            kind = m.group(1) or m.group(3)
            name = m.group(2) or m.group(4)
            yield number, kind, name


def scan(root):
    """Returns (every item, the unreached ones) as (rel, line, kind, name)."""
    words = {}
    for path in rust_files(root, excluded_top={"shims", "target"}):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            words[rel] = set(WORD.findall(f.read()))
    found, unreached = [], []
    for rel in sorted(words):
        if not is_library(rel):
            continue
        for number, kind, name in items(os.path.join(root, rel), root):
            item = (rel, number, kind, name)
            found.append(item)
            if not any(name in w for other, w in words.items() if other != rel):
                unreached.append(item)
    return found, unreached


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    found, unreached = scan(root)
    for rel, number, kind, name in unreached:
        note = "  (allowed: reached as a field type)" if name in ALLOWED else ""
        print(f"{rel}:{number}: pub {kind} {name}{note}")
    print(f"{len(unreached)} of {len(found)} library pub items unreached")
    new = sorted({name for *_, name in unreached} - ALLOWED)
    if new:
        print(f"unreached and not allowed: {', '.join(new)}: "
              "delete them, make them private, or reach them")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
