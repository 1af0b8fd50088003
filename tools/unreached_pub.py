#!/usr/bin/env python3
"""Lists the library `pub` items that no production code outside their own file uses.

Rule:
  * an item is a `pub fn`, `struct`, `enum`, `trait`, `const`, `static` or
    `type` in a library source: a file under `src/` or `crates/*/src/`,
    not under a `bin/` directory, in its production part (the lines before
    its first `#[cfg(test)]`, as `tools/rust_lines.py` splits a file);
  * the compiler says what uses it. The scan copies the tree (less
    `target`, `.git` and `.bench_build`), marks every item
    `#[deprecated]`, and runs `cargo check` on the workspace's libraries,
    binaries and examples and on each consumer manifest in CONSUMERS,
    which build against the library by path and may not change, so what
    they call is reached. The primary span of each deprecation warning is
    a use of the item the warning names. Test code is never compiled, so
    test modules, `tests/`, `benches/` and doctests reach nothing;
  * an item is unreached when no use lies in another file;
  * a use inside a `use` declaration (which may span lines) reaches a
    `struct`, `enum`, `trait` or `type`, never a `fn`, `const` or
    `static`: a re-export is not a use, but callers use returned and
    field types without naming them;
  * deprecating a struct deprecates its fields, so reading a field in
    another file reaches the struct.

The probe sees only the host's `cfg`: code behind another target's `cfg`
is not compiled, so it reaches nothing.

An item may be kept on purpose: a test oracle, a test fake, or a hook that
tests need to check behaviour production keeps. Such items go in ALLOWED,
keyed `<file>:<name>` (the file relative to the root, `/`-separated) so an
exemption covers only the item it names, each with its reason. The exit
status is 1 if any other item is unreached, or if an ALLOWED key names no
item, so a check can fail on a new one and a deleted item takes its
exemption with it. It is 2, with one line, if the probe cannot answer: a
probe build fails, or the tree already carries `#[deprecated]` or
`allow(deprecated)`, either of which would hide uses.

Usage (from anywhere; standard library and `cargo` only):

    python3 tools/unreached_pub.py            # the working tree
    python3 tools/unreached_pub.py <root>     # another checkout
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

from rust_lines import rust_files, split_lines, crate_of

ALLOWED = {
    "crates/attack/src/support.rs:pmf_support":
        "the exact PMF support `tests/attack_support.rs` holds alias tables to",
    "crates/attack/src/support.rs:table_matches_dist":
        "exact-law oracle `tests/attack_support.rs` audits window tables with",
    "crates/attack/src/support.rs:table_support":
        "the realized support `tests/attack_support.rs` checks against the PMF's",
    "crates/bench/src/fleet.rs:Gate":
        "`Gates`' public field type; the bench binaries render it via `Gate::to_json`",
    "crates/dpbox/src/array.rs:health_alarm":
        "the step-counter test counts tripped lanes by their latched alarm",
    "crates/dpbox/src/array.rs:remaining_budget":
        "the lockstep test compares each lane's budget with the scalar device's",
    "crates/dpbox/src/datapath.rs:table":
        "the segment table the array's branch-free release is tested against",
    "crates/dpbox/src/device.rs:disable_health":
        "structural-bound tests run the DP-Box without its URNG monitor",
    "crates/dpbox/src/device.rs:output":
        "the FSM's output port; port-protocol tests read it after clocking `tick`",
    "crates/dpbox/src/device.rs:ready":
        "the FSM's output-ready line; port-protocol tests clock `tick` until it rises",
    "crates/dpbox/src/device.rs:tick":
        "the FSM's one-cycle clock; port-protocol and waveform tests clock it",
    "crates/dpbox/src/trace.rs:is_empty":
        "clippy's `len_without_is_empty` asks it beside the public `len`",
    "crates/eval/src/adversary.rs:averaging_attack":
        "`adversary_curves` runs through it; determinism tests compare the two",
    "crates/eval/src/setup.rs:is_empty":
        "clippy's `len_without_is_empty` asks it beside the public `len`",
    "crates/eval/src/svm.rs:train":
        "the SVM sweep trains through it; the Pegasos bench times it directly",
    "crates/fixed/src/value.rs:from_f64":
        "quantizes the real inputs the CORDIC and `Fx` tests feed the datapath",
    "crates/fixed/src/value.rs:to_f64":
        "`Fx`'s `Display` prints through it; the crate's property tests read it",
    "crates/fleet/src/chaos.rs:quiet":
        "the fault-free transport the chaos tests switch single fault classes on over",
    "crates/fleet/src/collector.rs:ingest_frames":
        "the one-buffer ingest the collector and chaos tests drive",
    "crates/fleet/src/driver.rs:serve":
        "`run_service` runs through it; service tests read the windows it returns",
    "crates/fleet/src/driver.rs:with_engine":
        "differential-test hook: the reference engine must match the batch engine",
    "crates/fleet/src/driver.rs:with_ingest_path":
        "differential-test hook: the reference ingest must match the streaming drain",
    "crates/ldp/src/budget.rs:charge_for_overshoot":
        "the independent reference `Release::charge` is tested against",
    "crates/ldp/src/budget.rs:ledger":
        "the charge ledger the controller's audit tests read back",
    "crates/ldp/src/budget.rs:remaining":
        "invariant and ledger tests bound Algorithm 1's overdraw with it",
    "crates/ldp/src/budget.rs:replenish":
        "Algorithm 1's replenishment timer; the ledger audit replays across periods",
    "crates/ldp/src/budget.rs:respond":
        "the per-draw reference `respond_alias` is tested against",
    "crates/ldp/src/budget.rs:stats":
        "the served/cached counters the ledger tests check the ledger against",
    "crates/ldp/src/ledger.rs:is_empty":
        "clippy's `len_without_is_empty` asks it beside the public `len`",
    "crates/ldp/src/ledger.rs:spend_keys":
        "window tests check that a sealed ledger keeps no per-spend keys",
    "crates/ldp/src/loss.rs:loss_at":
        "the per-output loss the loss oracle and invariant tests compare with",
    "crates/ldp/src/multi.rs:replenish":
        "the pool's replenishment timer; its unit test reopens an exhausted pool",
    "crates/ldp/src/rr.rs:new":
        "builds RR at a chosen flip probability for the RR estimator tests",
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
    "crates/rng/src/source.rs:new":
        "`ScriptedBits`, the scripted-word fake the sampler and structural-bound tests drive",
}

# Manifests outside the workspace that build against its libraries by path.
CONSUMERS = ["perfbench/e2e/Cargo.toml", "perfbench/trace/Cargo.toml"]
NOT_COPIED = {"target", ".git", ".bench_build"}

ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"[^\"]*\")\s+)*"
    r"(?:(fn|struct|enum|trait|type)\s+(\w+)|(const|static)\s+(?:mut\s+)?(\w+)\s*:)"
)
USE = re.compile(r"\s*(?:pub(?:\([^)]*\))?\s+)?use\s")
# A whole `use` declaration: paths, braces, globs and `as` only, so a string
# that spans lines and starts one with "use" is not mistaken for one.
USE_DECL = re.compile(r"\s*(?:pub(?:\([^)]*\))?\s+)?use\s[\w\s:{},*]*;\s*")
BLINDS = re.compile(r"#!?\[\s*deprecated\b|\ballow\s*\([^)]*\bdeprecated\b")
PROBE = "unreached-pub-probe-"
PROBE_ID = re.compile(re.escape(PROBE) + r"(\d+)")
TYPE_KINDS = {"struct", "enum", "trait", "type"}


class ProbeError(Exception):
    """The probe cannot tell what is reached."""


def is_library(rel):
    parts = rel.split(os.sep)
    if "bin" in parts[:-1]:
        return False
    return parts[0] == "src" or (
        len(parts) > 3 and parts[0] == "crates" and parts[2] == "src"
    )


def items(path, root):
    """Yields (line number, kind, name) of each item in `path`'s
    production part."""
    prod, _ = split_lines(path, os.path.join(root, crate_of(path, root)))
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()[:prod]
    for number, line in enumerate(lines, 1):
        m = ITEM.match(line)
        if m:
            kind = m.group(1) or m.group(3)
            name = m.group(2) or m.group(4)
            yield number, kind, name


def use_lines(path):
    """The line numbers of `path` that lie in a `use` declaration."""
    with open(path, encoding="utf-8") as f:
        text = f.read().splitlines()
    lines, start = set(), None
    for i, line in enumerate(text):
        if start is None and USE.match(line):
            start = i
        if start is not None and ";" in line:
            if USE_DECL.fullmatch("\n".join(text[start:i + 1])):
                lines.update(range(start + 1, i + 2))
            start = None
    return lines


def mark(path, numbers, first_id):
    """Puts a probe `#[deprecated]` above each of the lines `numbers` (in
    order) of `path`; the k-th gets id `first_id + k`."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines(keepends=True)
    for k, number in reversed(list(enumerate(numbers))):
        line = lines[number - 1]
        indent = line[:len(line) - len(line.lstrip())]
        lines.insert(number - 1, f'{indent}#[deprecated(note = "{PROBE}{first_id + k}")]\n')
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def messages_of(probe, manifest, *args):
    """Runs `cargo check` on `manifest` (relative to `probe`) and returns
    the compiler's messages. Raises ProbeError if the build fails."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("RUSTFLAGS", "CARGO_ENCODED_RUSTFLAGS")}
    env["CARGO_TARGET_DIR"] = os.path.join(probe, "target")
    cmd = ["cargo", "check", "--offline", "--message-format=json",
           "--manifest-path", os.path.join(probe, manifest), *args]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    except OSError as e:
        raise ProbeError(f"cannot run cargo: {e}") from e
    messages = [record["message"] for record in map(json.loads, (
        line for line in done.stdout.splitlines() if line.startswith("{")))
        if record.get("reason") == "compiler-message"]
    if done.returncode != 0:
        errors = [m["message"] for m in messages if m["level"] == "error"]
        tail = errors[0] if errors else (done.stderr.strip().splitlines() or ["?"])[-1]
        raise ProbeError(f"probe build of {manifest} failed: {tail}")
    return messages


def uses(probe):
    """Yields (probe id, file relative to `probe`, line) of the primary
    span of every probe deprecation warning in `probe`'s builds."""
    builds = [("Cargo.toml", ["--workspace", "--lib", "--bins", "--examples"])]
    builds += [(c, []) for c in CONSUMERS if os.path.exists(os.path.join(probe, c))]
    for manifest, args in builds:
        # Cargo gives spans relative to the root of the workspace it builds.
        workspace = os.path.dirname(os.path.join(probe, manifest))
        for message in messages_of(probe, manifest, *args):
            found = PROBE_ID.search(message["message"])
            for span in message["spans"] if found else []:
                if span["is_primary"]:
                    path = os.path.realpath(os.path.join(workspace, span["file_name"]))
                    rel = os.path.relpath(path, os.path.realpath(probe))
                    yield int(found.group(1)), rel, span["line_start"]


def scan(root):
    """Returns (every item, the unreached ones) as (rel, line, kind, name).
    Raises ProbeError if the probe cannot answer."""
    found, per_file = [], {}
    for path in rust_files(root, excluded_top={"shims", "target"}):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                if BLINDS.search(line):
                    raise ProbeError(
                        f"{rel}:{number} already carries "
                        "#[deprecated] or allow(deprecated), which hides uses")
        if is_library(rel):
            numbered = [(rel, number, kind, name)
                        for number, kind, name in items(path, root)]
            found.extend(numbered)
            per_file[rel] = [number for _, number, _, _ in numbered]
    with tempfile.TemporaryDirectory() as tmp:
        probe = os.path.join(tmp, "tree")
        shutil.copytree(root, probe, ignore=lambda _, names: NOT_COPIED & set(names))
        first = 0
        for rel, numbers in per_file.items():
            if numbers:
                mark(os.path.join(probe, rel), numbers, first)
            first += len(numbers)
        reached, use_decls = set(), {}
        for probe_id, rel, line in uses(probe):
            item_rel, _, kind, _ = found[probe_id]
            if rel == item_rel or rel.startswith(os.pardir):
                continue
            if rel not in use_decls:
                use_decls[rel] = use_lines(os.path.join(probe, rel))
            if kind in TYPE_KINDS or line not in use_decls[rel]:
                reached.add(probe_id)
    unreached = [item for i, item in enumerate(found) if i not in reached]
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
    try:
        found, unreached, new, stale = check(root, ALLOWED)
    except ProbeError as e:
        print(f"unreached_pub: {e}")
        return 2
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
