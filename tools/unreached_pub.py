#!/usr/bin/env python3
"""Lists the library `pub` items and `pub` struct fields that no production
code outside their own file uses.

Rule:
  * an item is a `pub fn`, `struct`, `enum`, `trait`, `const`, `static` or
    `type` in a library source: a file under `src/` or `crates/*/src/`,
    not under a `bin/` directory, in its production part (the lines before
    its first `#[cfg(test)]`, as `tools/rust_lines.py` splits a file); a
    field is a `pub name:` line of a struct there, named `Struct::name`;
  * the compiler says what uses it. The scan copies the tree (less
    `target`, `.git` and `.bench_build`), marks every item and field
    `#[deprecated]`, and runs `cargo check` on the workspace's libraries,
    binaries and examples and on each consumer manifest in CONSUMERS,
    which build against the library by path and may not change, so what
    they call is reached. The primary span of each deprecation warning is
    a use of the item or field the warning names. Test code is never
    compiled, so test modules, `tests/`, `benches/` and doctests reach
    nothing;
  * an item or field is unreached when no use lies in another file;
  * a field is also reached by a use inside one of the PRINTERS in its own
    file: the functions that render a canonical digest, an artifact or a
    `--metrics` snapshot, so what they print is read;
  * a use inside a `use` declaration (which may span lines) reaches a
    `struct`, `enum`, `trait` or `type`, never a `fn`, `const` or
    `static`: a re-export is not a use, but callers use returned and
    field types without naming them;
  * a use of a field in another file reaches its struct too.

The probe sees only the host's `cfg`: code behind another target's `cfg`
is not compiled, so it reaches nothing.

An item or field may be kept on purpose: a test oracle, a test fake, or a
hook that tests need to check behaviour production keeps. Such items go in
ALLOWED, keyed `<file>:<name>` (the file relative to the root,
`/`-separated), and such fields in ALLOWED_FIELDS, keyed
`<file>:<Struct>::<field>`, so an exemption covers only what it names,
each with its reason. The exit status is 1 if anything else is unreached,
or if an ALLOWED, ALLOWED_FIELDS or PRINTERS key names nothing, so a check
can fail on a new one and a deletion takes its exemption with it. It is 2,
with one line, if the probe cannot answer: a probe build fails, or the
tree already carries `#[deprecated]` or `allow(deprecated)`, either of
which would hide uses.

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

ALLOWED_FIELDS = {
    "crates/fleet/src/chaos.rs:Attempt::fault":
        "the fault that fired; the lane test checks it against six scalar chains'",
    "crates/fleet/src/chaos.rs:FaultClass::burst":
        "the mean burst length the lane test's scalar Gilbert–Elliott chains are built from",
    "crates/fleet/src/driver.rs:ServiceOutcome::max_inflight_bytes":
        "the bounded-state witness the driver's in-flight memory tests read",
    "crates/ldp/src/ledger.rs:LedgerEntry::query":
        "kept per spend: dropping it with `total_after` read perfbench stream_25k "
        "peak_rss_mb 101.8 → 125.5 MiB, past its bound (ROADMAP items 4 and 10)",
    "crates/ldp/src/ledger.rs:LedgerEntry::total_after":
        "kept per spend: dropping it with `query` read perfbench stream_25k "
        "peak_rss_mb 101.8 → 125.5 MiB, past its bound (ROADMAP items 4 and 10)",
    "crates/rng/src/health.rs:HealthAlarm::test":
        "which test tripped; the health, fault-injection and lane tests check it",
}

# The functions whose output is a canonical digest, an artifact or a
# `--metrics` snapshot: a field they print is read.
PRINTERS = {
    "crates/bench/src/fleet.rs:to_json": "the accuracy gates the fleet artifacts print",
    "crates/fleet/src/driver.rs:canonical_text": "the service outcome's digest",
    "crates/fleet/src/window.rs:canonical_text": "a sealed window's digest",
    "crates/obs/src/report.rs:to_json": "the `--metrics` snapshot",
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
# A named field: `pub name:`, never `pub const`/`pub static` (items) or a
# path (`::`).
FIELD = re.compile(r"^\s*pub\s+(\w+)\s*:(?!:)")
STRUCT = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?struct\s+(\w+)")
FN = re.compile(r"^(\s*)(?:pub(?:\([^)]*\))?\s+)?(?:const\s+)?fn\s+(\w+)")


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
    production part, and of each field as kind `field`, name
    `Struct::field`."""
    prod, _ = split_lines(path, os.path.join(root, crate_of(path, root)))
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()[:prod]
    owner = None
    for number, line in enumerate(lines, 1):
        m, s, f = ITEM.match(line), STRUCT.match(line), FIELD.match(line)
        if s:
            owner = s.group(1)
        if m:
            kind = m.group(1) or m.group(3)
            name = m.group(2) or m.group(4)
            yield number, kind, name
        elif f and owner:
            yield number, "field", f"{owner}::{f.group(1)}"


def bodies(path, names):
    """The line numbers of `path` that lie in a function named in `names`,
    from its `fn` line to the `}` at the `fn` line's indent."""
    with open(path, encoding="utf-8") as f:
        text = f.read().splitlines()
    lines = set()
    for i, line in enumerate(text):
        m = FN.match(line)
        if m and m.group(2) in names:
            end = i
            if not line.rstrip().endswith("}"):
                while end + 1 < len(text) and text[end] != m.group(1) + "}":
                    end += 1
            lines.update(range(i + 1, end + 2))
    return lines


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


def scan(root, printers):
    """Returns (everything scanned, the unreached) as (rel, line, kind,
    name), fields with kind `field`. `printers` are `<file>:<fn>` keys.
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
    structs = {(rel, name): i for i, (rel, _, kind, name) in enumerate(found)
               if kind == "struct"}
    with tempfile.TemporaryDirectory() as tmp:
        probe = os.path.join(tmp, "tree")
        shutil.copytree(root, probe, ignore=lambda _, names: NOT_COPIED & set(names))
        first = 0
        for rel, numbers in per_file.items():
            if numbers:
                mark(os.path.join(probe, rel), numbers, first)
            first += len(numbers)
        reached, use_decls, printed = set(), {}, {}
        for probe_id, rel, line in uses(probe):
            item_rel, _, kind, name = found[probe_id]
            if rel.startswith(os.pardir):
                continue
            if rel == item_rel:
                if kind == "field":
                    if rel not in printed:
                        names = {key.rsplit(":", 1)[1] for key in printers
                                 if key.startswith(key_of(rel, ""))}
                        printed[rel] = bodies(os.path.join(probe, rel), names)
                    if line in printed[rel]:
                        reached.add(probe_id)
                continue
            if kind == "field":
                reached.add(probe_id)
                owner = structs.get((item_rel, name.split("::")[0]))
                if owner is not None:
                    reached.add(owner)
                continue
            if rel not in use_decls:
                use_decls[rel] = use_lines(os.path.join(probe, rel))
            if kind in TYPE_KINDS or line not in use_decls[rel]:
                reached.add(probe_id)
    unreached = [item for i, item in enumerate(found) if i not in reached]
    return found, unreached


def key_of(rel, name):
    return f"{rel.replace(os.sep, '/')}:{name}"


def check(root, allowed, allowed_fields, printers):
    """Returns (everything scanned, the unreached, the unreached keys in
    neither allow-list, the `allowed`, `allowed_fields` and `printers` keys
    that name nothing)."""
    found, unreached = scan(root, printers)
    new = [key_of(rel, name) for rel, _, _, name in unreached
           if key_of(rel, name) not in allowed and key_of(rel, name) not in allowed_fields]
    item_keys = {key_of(rel, name) for rel, _, kind, name in found if kind != "field"}
    field_keys = {key_of(rel, name) for rel, _, kind, name in found if kind == "field"}
    fns = set()
    for rel in {key.rsplit(":", 1)[0] for key in printers}:
        path = os.path.join(root, rel)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                fns |= {key_of(rel, m.group(2)) for m in map(FN.match, f) if m}
    stale = sorted([key for key in allowed if key not in item_keys]
                   + [key for key in allowed_fields if key not in field_keys]
                   + [key for key in printers if key not in fns])
    return found, unreached, new, stale


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    try:
        found, unreached, new, stale = check(root, ALLOWED, ALLOWED_FIELDS, PRINTERS)
    except ProbeError as e:
        print(f"unreached_pub: {e}")
        return 2
    for rel, number, kind, name in unreached:
        reason = {**ALLOWED, **ALLOWED_FIELDS}.get(key_of(rel, name))
        note = f"  (allowed: {reason})" if reason else ""
        print(f"{rel}:{number}: pub {kind} {name}{note}")
    for noun, is_field in (("items", False), ("fields", True)):
        total = sum((kind == "field") == is_field for _, _, kind, _ in found)
        missed = sum((kind == "field") == is_field for _, _, kind, _ in unreached)
        print(f"{missed} of {total} library pub {noun} unreached")
    if new:
        print(f"unreached and not allowed: {', '.join(new)}: "
              "delete them, make them private, or reach them")
    if stale:
        print(f"allowed or printing but no such item, field or fn: {', '.join(stale)}: "
              "delete the entry")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
