#!/usr/bin/env python3
"""Lists the library `pub` items that no production code outside their own file names.

Rule:
  * an item is a `pub fn`, `struct`, `enum`, `trait`, `const`, `static` or
    `type` in a library source: a file under `src/` or `crates/*/src/`,
    not under a `bin/` directory, in its production part (the lines before
    its first `#[cfg(test)]`, as `tools/rust_lines.py` splits a file);
  * it is unreached when the production code of no other `.rs` file
    mentions its name as a word. Library and `bin/` sources, `examples/`
    and `perfbench/` count; `tests/` and `benches/` directories, test
    modules and `//` comments (doc comments included) do not, so an item
    only tests call is unreached even where a comment names it. A `//`
    inside a string or char literal is code, not a comment. `shims/`,
    `target/` and build directories (`.*`, `target`) are not read;
  * a re-export is not a use of a `fn`, `const` or `static`: the words of
    a `pub use` statement (which may span lines) reach only a `struct`,
    `enum`, `trait` or `type`, because callers use returned and field
    types without naming them.

An item may be kept on purpose: reached through a public field's type, or a
hook that tests need and production does not. Such items go in ALLOWED,
keyed `<file>:<name>` (the file relative to the root, `/`-separated) so an
exemption covers only the item it names, each with its reason. The exit
status is 1 if any other item is unreached, or if an ALLOWED key names no
item, so a check can fail on a new one and a deleted item takes its
exemption with it.

Usage (from anywhere; standard library only):

    python3 tools/unreached_pub.py            # the working tree
    python3 tools/unreached_pub.py <root>     # another checkout
"""

import os
import re
import sys

from rust_lines import rust_files, split_lines, crate_of

ALLOWED = {
    "crates/attack/src/support.rs:pmf_support":
        "the exact PMF support `tests/attack_support.rs` holds alias tables to",
    "crates/attack/src/support.rs:table_matches_dist":
        "exact-law oracle `tests/attack_support.rs` audits window tables with",
    "crates/attack/src/support.rs:table_support":
        "the realized support `tests/attack_support.rs` checks against the PMF's",
    "crates/bench/src/fleet.rs:Gates":
        "reached as the type of `ldp_bench::fleet::Cell`'s public fields",
    "crates/bench/src/fleet.rs:Phases":
        "reached as the type of `ldp_bench::fleet::Cell`'s public fields",
    "crates/dpbox/src/device.rs:disable_health":
        "structural-bound tests run the DP-Box without its URNG monitor",
    "crates/dpbox/src/device.rs:tick":
        "the FSM's one-cycle clock; port-protocol and waveform tests clock it",
    "crates/eval/src/adversary.rs:averaging_attack":
        "`adversary_curves` runs through it; determinism tests compare the two",
    "crates/eval/src/svm.rs:train":
        "the SVM sweep trains through it; the Pegasos bench times it directly",
    "crates/fixed/src/value.rs:to_f64":
        "`Fx`'s `Display` prints through it; the crate's property tests read it",
    "crates/fleet/src/collector.rs:ingest_frames":
        "the one-buffer ingest the collector and chaos tests drive",
    "crates/fleet/src/driver.rs:serve":
        "`run_service` runs through it; service tests read the windows it returns",
    "crates/fleet/src/driver.rs:with_engine":
        "differential-test hook: the reference engine must match the batch engine",
    "crates/ldp/src/budget.rs:charge_for_overshoot":
        "the independent reference `Release::charge` is tested against",
    "crates/ldp/src/budget.rs:replenish":
        "Algorithm 1's replenishment timer; the ledger audit replays across periods",
    "crates/ldp/src/ledger.rs:spend_keys":
        "window tests check that a sealed ledger keeps no per-spend keys",
    "crates/ldp/src/loss.rs:loss_at":
        "the per-output loss the loss oracle and invariant tests compare with",
    "crates/ldp/src/multi.rs:replenish":
        "the pool's replenishment timer; its unit test reopens an exhausted pool",
    "crates/par/src/lib.rs:par_map_with":
        "`par_map` runs through it; determinism tests pin explicit widths",
    "crates/rng/src/alias.rs:bucket_count":
        "tests compare cached and fresh alias tables bucket for bucket",
    "crates/rng/src/alias.rs:verify_exact":
        "the alias construction's exactness proof that tests run",
    "crates/rng/src/laplace.rs:cdf":
        "the analytic oracle the Laplace inversion sampler is tested against",
    "crates/rng/src/pmf.rs:by_enumeration":
        "the enumeration oracle property tests check `closed_form` against",
}

ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"[^\"]*\")\s+)*"
    r"(?:(fn|struct|enum|trait|type)\s+(\w+)|(const|static)\s+(?:mut\s+)?(\w+)\s*:)"
)
REEXPORT = re.compile(r"^\s*pub(?:\([^)]*\))?\s+use\b")
TYPE_KINDS = {"struct", "enum", "trait", "type"}
WORD = re.compile(r"\w+")
RAW_STRING = re.compile(r'b?r(#*)"')


def is_library(rel):
    parts = rel.split(os.sep)
    if "bin" in parts[:-1]:
        return False
    return parts[0] == "src" or (
        len(parts) > 3 and parts[0] == "crates" and parts[2] == "src"
    )


def production_lines(path, root):
    """The lines of `path` before its first `#[cfg(test)]`; none for a
    file under `tests/` or `benches/`."""
    prod, _ = split_lines(path, os.path.join(root, crate_of(path, root)))
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()[:prod]


def items(path, root):
    for number, line in enumerate(production_lines(path, root), 1):
        m = ITEM.match(line)
        if m:
            kind = m.group(1) or m.group(3)
            name = m.group(2) or m.group(4)
            yield number, kind, name


def strip_comments(lines):
    """Yields each of `lines` less its `//` comment. String and char
    literals are read through, so a `//` inside one stays, and a string
    may span lines; a `'` that opens no char literal is a lifetime."""
    close = None  # what ends the string literal that is open, if any
    for line in lines:
        i = 0
        while i < len(line):
            if close:
                if close == '"' and line[i] == "\\":
                    i += 2
                elif line.startswith(close, i):
                    i += len(close)
                    close = None
                else:
                    i += 1
            elif line.startswith("//", i):
                line = line[:i]
            elif line[i] == '"':
                close = '"'
                i += 1
            elif (raw := RAW_STRING.match(line, i)) and not (
                    i and (line[i - 1].isalnum() or line[i - 1] == "_")):
                close = '"' + raw.group(1)
                i = raw.end()
            elif line.startswith("'\\", i):
                end = line.find("'", i + 3)
                i = end + 1 if end >= 0 else len(line)
            elif line[i] == "'" and line[i + 2:i + 3] == "'":
                i += 3
            else:
                i += 1
        yield line


def mentions(line):
    """The words of `line`, less the name a `pub` item line defines: a
    second item of the same name is not a mention of the first."""
    m = ITEM.match(line)
    if m:
        start, end = m.span(2) if m.group(2) else m.span(4)
        line = line[:start] + line[end:]
    return WORD.findall(line)


def words_of(lines):
    """Returns (the words `lines` use, the words their `pub use`
    statements name), less comments and defined names."""
    used, reexported = set(), set()
    in_reexport = False
    for line in strip_comments(lines):
        in_reexport = in_reexport or bool(REEXPORT.match(line))
        (reexported if in_reexport else used).update(mentions(line))
        if in_reexport and ";" in line:
            in_reexport = False
    return used, reexported


def scan(root):
    """Returns (every item, the unreached ones) as (rel, line, kind, name)."""
    words = {}
    for path in rust_files(root, excluded_top={"shims", "target"}):
        rel = os.path.relpath(path, root)
        words[rel] = words_of(production_lines(path, root))
    found, unreached = [], []
    for rel in sorted(words):
        if not is_library(rel):
            continue
        for number, kind, name in items(os.path.join(root, rel), root):
            item = (rel, number, kind, name)
            found.append(item)
            if not any(name in used or (kind in TYPE_KINDS and name in reexported)
                       for other, (used, reexported) in words.items()
                       if other != rel):
                unreached.append(item)
    return found, unreached


def key_of(rel, name):
    return f"{rel.replace(os.sep, '/')}:{name}"


def check(root, allowed):
    """Returns (every item, the unreached ones, the unreached keys not in
    `allowed`, the `allowed` keys that name no item)."""
    found, unreached = scan(root)
    new = [key_of(rel, name) for rel, _, _, name in unreached
           if key_of(rel, name) not in allowed]
    known = {key_of(rel, name) for rel, _, _, name in found}
    stale = sorted(key for key in allowed if key not in known)
    return found, unreached, new, stale


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    found, unreached, new, stale = check(root, ALLOWED)
    for rel, number, kind, name in unreached:
        reason = ALLOWED.get(key_of(rel, name))
        note = f"  (allowed: {reason})" if reason else ""
        print(f"{rel}:{number}: pub {kind} {name}{note}")
    print(f"{len(unreached)} of {len(found)} library pub items unreached")
    if new:
        print(f"unreached and not allowed: {', '.join(new)}: "
              "delete them, make them private, or reach them")
    if stale:
        print(f"allowed but no such item: {', '.join(stale)}: "
              "delete the ALLOWED entry")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
