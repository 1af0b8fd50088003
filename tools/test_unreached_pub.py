#!/usr/bin/env python3
"""Tests for `unreached_pub.py`, each on a small synthetic tree.

Usage (standard library only):

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


class SyntheticTree(unittest.TestCase):
    """Each test writes a workspace with one library crate, `crates/a`, and
    scans it."""

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.root = self._dir.name
        self.write("Cargo.toml", "[workspace]\n")
        self.write("crates/a/Cargo.toml", "[package]\nname = \"a\"\n")

    def tearDown(self):
        self._dir.cleanup()

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(textwrap.dedent(text))

    def unreached(self):
        _, unreached = unreached_pub.scan(self.root)
        return {name for _, _, _, name in unreached}

    def run_main(self, allowed):
        out = io.StringIO()
        with mock.patch.object(unreached_pub, "ALLOWED", allowed), \
                mock.patch.object(sys, "argv", ["unreached_pub.py", self.root]), \
                contextlib.redirect_stdout(out):
            status = unreached_pub.main()
        return status, out.getvalue()


class ReexportRule(SyntheticTree):
    def setUp(self):
        super().setUp()
        self.write("crates/a/src/util.rs", """\
            pub fn helper() -> Thing { Thing }
            pub const LIMIT: u32 = 3;
            pub struct Thing;
            pub fn called() {}
        """)
        self.write("crates/a/src/lib.rs", """\
            mod util;
            pub use util::{
                called, helper,
                Thing, LIMIT,
            };
        """)
        self.write("crates/a/src/bin/tool.rs", """\
            fn main() {
                a::called();
            }
        """)

    def test_a_fn_named_only_in_a_multi_line_pub_use_is_unreached(self):
        self.assertIn("helper", self.unreached())

    def test_a_const_named_only_in_a_pub_use_is_unreached(self):
        self.assertIn("LIMIT", self.unreached())

    def test_a_type_named_only_in_a_pub_use_stays_reached(self):
        self.assertNotIn("Thing", self.unreached())

    def test_a_called_fn_is_reached(self):
        self.assertNotIn("called", self.unreached())


class WhatIsNotAMention(SyntheticTree):
    def setUp(self):
        super().setUp()
        self.write("crates/a/src/lib.rs", """\
            pub mod probe;
            pub mod other;
        """)
        self.write("crates/a/src/probe.rs", "pub fn hook() {}\n")

    def test_a_comment_is_not_a_mention(self):
        self.write("crates/a/src/other.rs", """\
            /// Runs after [`crate::probe::hook`].
            pub fn other() {} // hook() would go here
        """)
        self.assertIn("hook", self.unreached())

    def test_a_test_module_is_not_a_mention(self):
        self.write("crates/a/src/other.rs", """\
            pub fn other() {}

            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    crate::probe::hook();
                }
            }
        """)
        self.assertIn("hook", self.unreached())

    def test_a_same_name_definition_is_not_a_mention(self):
        self.write("crates/a/src/other.rs", "pub fn hook() {}\n")
        _, unreached = unreached_pub.scan(self.root)
        files = {rel.replace(os.sep, "/") for rel, _, _, name in unreached
                 if name == "hook"}
        self.assertEqual({"crates/a/src/probe.rs", "crates/a/src/other.rs"}, files)

    def test_a_string_holding_slashes_is_code(self):
        self.write("crates/a/src/other.rs", """\
            pub fn other() -> &'static str { let _ = "//"; crate::probe::hook(); "" }
        """)
        self.assertNotIn("hook", self.unreached())


class Allowed(SyntheticTree):
    def setUp(self):
        super().setUp()
        self.write("crates/a/src/lib.rs", """\
            pub mod one;
            pub mod two;
        """)
        self.write("crates/a/src/one.rs", "pub fn hook() {}\n")
        self.write("crates/a/src/two.rs", "pub fn hook() {}\n")

    def test_a_key_exempts_only_its_own_file(self):
        allowed = {"crates/a/src/one.rs:hook": "a test hook"}
        _, _, new, stale = unreached_pub.check(self.root, allowed)
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
        _, _, new, stale = unreached_pub.check(self.root, allowed)
        self.assertEqual([], new)
        self.assertEqual(["crates/a/src/gone.rs:deleted"], stale)
        status, out = self.run_main(allowed)
        self.assertEqual(1, status)
        self.assertIn("crates/a/src/gone.rs:deleted", out)


if __name__ == "__main__":
    unittest.main()
