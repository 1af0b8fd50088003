#!/usr/bin/env python3
"""Tests for `unreached_pub.py`, each on a tiny cargo workspace with no
dependencies (the scan runs `cargo check --offline` on it).

Usage (standard library and `cargo` only):

    python3 -m unittest discover -s tools
"""

import contextlib
import io
import os
import sys
import tempfile
import textwrap
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import unreached_pub  # noqa: E402

PACKAGE = '[package]\nname = "{}"\nversion = "0.1.0"\nedition = "2021"\n'


class Workspace(unittest.TestCase):
    """A workspace with one library crate, `crates/a`, that each test class
    fills in and scans."""

    FILES = {}

    @classmethod
    def setUpClass(cls):
        cls._dir = tempfile.TemporaryDirectory()
        cls.root = cls._dir.name
        cls.write("Cargo.toml", '[workspace]\nmembers = ["crates/a"]\nresolver = "2"\n')
        cls.write("crates/a/Cargo.toml", PACKAGE.format("a"))
        for rel, text in cls.FILES.items():
            cls.write(rel, text)

    @classmethod
    def tearDownClass(cls):
        cls._dir.cleanup()

    @classmethod
    def write(cls, rel, text):
        path = os.path.join(cls.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(textwrap.dedent(text))

    @classmethod
    def unreached(cls, printers=()):
        _, unreached = unreached_pub.scan(cls.root, printers)
        return {(rel.replace(os.sep, "/"), name) for rel, _, _, name in unreached}

    def run_main(self, allowed, allowed_fields=None, printers=None):
        out = io.StringIO()
        with mock.patch.object(unreached_pub, "ALLOWED", allowed), \
                mock.patch.object(unreached_pub, "ALLOWED_FIELDS", allowed_fields or {}), \
                mock.patch.object(unreached_pub, "PRINTERS", printers or {}), \
                mock.patch.object(sys, "argv", ["unreached_pub.py", self.root]), \
                contextlib.redirect_stdout(out):
            status = unreached_pub.main()
        return status, out.getvalue()


class WhatCountsAsAUse(Workspace):
    FILES = {
        "crates/a/src/lib.rs": """\
            pub mod one;
            pub mod two;
            mod util;
            pub use util::{
                helper,
                Thing,
            };

            /// Calls [`util::within`]; a doc comment naming
            /// `own_file_only` is not a use.
            pub fn make() -> u32 {
                pick(
                    "a string that spans lines,
                    use starting one of them",
                    util::within(),
                )
            }

            fn pick(_: &str, v: u32) -> u32 {
                v
            }

            pub fn read() -> u32 {
                util::holder().value
            }

            pub fn consumed() {}

            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    crate::one::Counter.reset();
                    crate::util::helper();
                }
            }
        """,
        "crates/a/src/one.rs": """\
            pub struct Counter;

            impl Counter {
                pub fn reset(&self) {}
            }
        """,
        "crates/a/src/two.rs": """\
            pub struct Gauge;

            impl Gauge {
                pub fn reset(&self) {}
            }
        """,
        "crates/a/src/util.rs": """\
            pub fn helper() {}

            pub struct Thing;

            pub struct Holder {
                pub value: u32,
            }

            pub fn holder() -> Holder {
                Holder { value: 1 }
            }

            pub fn within() -> u32 {
                own_file_only()
            }

            pub fn own_file_only() -> u32 {
                7
            }
        """,
        "crates/a/src/bin/tool.rs": """\
            fn main() {
                a::two::Gauge.reset();
                let _ = a::make();
            }
        """,
        "perfbench/e2e/Cargo.toml": PACKAGE.format("e2e")
        + '\n[workspace]\n\n[dependencies]\na = { path = "../../crates/a" }\n',
        "perfbench/e2e/src/main.rs": """\
            fn main() {
                a::consumed();
                let _ = a::read();
            }
        """,
    }

    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        cls.found = cls.unreached()

    def test_a_same_name_method_does_not_hide_an_unreached_one(self):
        # `Counter::reset` is called only from a test module; `Gauge::reset`
        # from a binary. A word scan sees "reset" used and reads both reached.
        self.assertIn(("crates/a/src/one.rs", "reset"), self.found)
        self.assertNotIn(("crates/a/src/two.rs", "reset"), self.found)

    def test_a_fn_named_only_in_a_multi_line_pub_use_is_unreached(self):
        self.assertIn(("crates/a/src/util.rs", "helper"), self.found)

    def test_a_type_named_only_in_a_pub_use_is_reached(self):
        self.assertNotIn(("crates/a/src/util.rs", "Thing"), self.found)

    def test_a_use_in_the_items_own_file_does_not_count(self):
        self.assertIn(("crates/a/src/util.rs", "own_file_only"), self.found)
        self.assertNotIn(("crates/a/src/util.rs", "within"), self.found)

    def test_a_use_from_a_consumer_manifest_counts(self):
        self.assertNotIn(("crates/a/src/lib.rs", "consumed"), self.found)
        self.assertNotIn(("crates/a/src/lib.rs", "read"), self.found)

    def test_a_field_read_in_another_file_reaches_its_struct(self):
        self.assertNotIn(("crates/a/src/util.rs", "Holder"), self.found)

    def test_a_string_line_starting_with_use_is_not_a_use_declaration(self):
        # `util::within()` is called right after a string line that begins
        # with "use", before any `;`: the call still counts.
        self.assertNotIn(("crates/a/src/util.rs", "within"), self.found)

    def test_a_comment_is_not_a_use(self):
        self.assertIn(("crates/a/src/util.rs", "own_file_only"), self.found)

    def test_items_of_test_modules_and_binaries_are_not_scanned(self):
        self.assertFalse({rel for rel, _ in self.found} & {"crates/a/src/bin/tool.rs"})


class Allowed(Workspace):
    FILES = {
        "crates/a/src/lib.rs": """\
            pub mod one;
            pub mod two;
        """,
        "crates/a/src/one.rs": "pub fn hook() {}\n",
        "crates/a/src/two.rs": "pub fn hook() {}\n",
    }

    def test_a_key_exempts_only_its_own_file(self):
        allowed = {"crates/a/src/one.rs:hook": "a test hook"}
        _, _, new, stale = unreached_pub.check(self.root, allowed, {}, {})
        self.assertEqual(["crates/a/src/two.rs:hook"], new)
        self.assertEqual([], stale)
        status, _ = self.run_main(allowed)
        self.assertEqual(1, status)

    def test_every_unreached_item_allowed_passes(self):
        allowed = {
            "crates/a/src/one.rs:hook": "a test hook",
            "crates/a/src/two.rs:hook": "a test hook",
        }
        status, out = self.run_main(allowed)
        self.assertEqual(0, status, out)

    def test_a_key_naming_no_item_fails_the_run(self):
        allowed = {
            "crates/a/src/one.rs:hook": "a test hook",
            "crates/a/src/two.rs:hook": "a test hook",
            "crates/a/src/gone.rs:deleted": "its item was deleted",
        }
        status, out = self.run_main(allowed)
        self.assertEqual(1, status)
        self.assertIn("crates/a/src/gone.rs:deleted", out)


class Fields(Workspace):
    FILES = {
        "crates/a/src/lib.rs": "pub mod cfg;\n",
        "crates/a/src/cfg.rs": """\
            pub struct Config {
                pub shown: u32,
                pub own: u32,
                pub tested: u32,
                pub consumed: u32,
                pub used: u32,
            }

            impl Config {
                pub fn new() -> Config {
                    Config { shown: 1, own: 2, tested: 3, consumed: 4, used: 5 }
                }

                pub fn canonical_text(&self) -> String {
                    format!("shown={}", self.shown)
                }

                pub fn doubled(&self) -> u32 {
                    self.own * 2
                }
            }

            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    assert_eq!(super::Config::new().tested, 3);
                }
            }
        """,
        "crates/a/src/bin/tool.rs": """\
            fn main() {
                let c = a::cfg::Config::new();
                println!("{} {} {}", c.used, c.canonical_text(), c.doubled());
            }
        """,
        "crates/a/tests/it.rs": """\
            #[test]
            fn t() {
                assert_eq!(a::cfg::Config::new().tested, 3);
            }
        """,
        "perfbench/e2e/Cargo.toml": PACKAGE.format("e2e")
        + '\n[workspace]\n\n[dependencies]\na = { path = "../../crates/a" }\n',
        "perfbench/e2e/src/main.rs": "fn main() {\n    let _ = a::cfg::Config::new().consumed;\n}\n",
    }
    PRINTERS = {"crates/a/src/cfg.rs:canonical_text": "the digest"}
    ALLOWED_FIELDS = {
        "crates/a/src/cfg.rs:Config::tested": "a test hook",
        "crates/a/src/cfg.rs:Config::own": "read by its own file",
    }

    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        cls.found = cls.unreached(cls.PRINTERS)

    def test_a_field_read_only_by_tests_is_unreached(self):
        # Read by the crate's test module and by `tests/it.rs` only.
        self.assertIn(("crates/a/src/cfg.rs", "Config::tested"), self.found)

    def test_a_field_read_only_in_its_own_file_is_unreached(self):
        self.assertIn(("crates/a/src/cfg.rs", "Config::own"), self.found)

    def test_a_field_read_by_a_binary_or_a_consumer_manifest_is_reached(self):
        self.assertNotIn(("crates/a/src/cfg.rs", "Config::used"), self.found)
        self.assertNotIn(("crates/a/src/cfg.rs", "Config::consumed"), self.found)

    def test_a_field_printed_by_its_own_files_printer_is_reached(self):
        self.assertNotIn(("crates/a/src/cfg.rs", "Config::shown"), self.found)
        self.assertIn(("crates/a/src/cfg.rs", "Config::shown"), self.unreached())

    def test_every_unreached_field_allowed_passes(self):
        status, out = self.run_main({}, self.ALLOWED_FIELDS, self.PRINTERS)
        self.assertEqual(0, status, out)
        self.assertIn("2 of 5 library pub fields unreached", out)

    def test_a_stale_field_key_or_printer_fails_the_run(self):
        for fields, printers, stale in [
            ({**self.ALLOWED_FIELDS, "crates/a/src/cfg.rs:Config::gone": "deleted"},
             self.PRINTERS, "crates/a/src/cfg.rs:Config::gone"),
            (self.ALLOWED_FIELDS, {**self.PRINTERS, "crates/a/src/cfg.rs:to_json": "gone"},
             "crates/a/src/cfg.rs:to_json"),
        ]:
            status, out = self.run_main({}, fields, printers)
            self.assertEqual(1, status, out)
            self.assertIn(stale, out)


class ProbeFailures(Workspace):
    FILES = {"crates/a/src/lib.rs": "pub fn f() {}\n"}

    def test_a_probe_that_does_not_compile_exits_2(self):
        self.write("crates/a/src/bin/broken.rs", "fn main() { a::missing(); }\n")
        try:
            status, out = self.run_main({})
        finally:
            os.remove(os.path.join(self.root, "crates/a/src/bin/broken.rs"))
        self.assertEqual(2, status)
        self.assertEqual(1, len(out.splitlines()), out)
        self.assertIn("failed", out)

    def test_a_tree_that_already_allows_deprecated_exits_2(self):
        self.write("crates/a/src/bin/quiet.rs", "#[allow(deprecated)]\nfn main() { a::f(); }\n")
        try:
            status, out = self.run_main({})
        finally:
            os.remove(os.path.join(self.root, "crates/a/src/bin/quiet.rs"))
        self.assertEqual(2, status)
        self.assertIn("crates/a/src/bin/quiet.rs:1", out)


if __name__ == "__main__":
    unittest.main()
