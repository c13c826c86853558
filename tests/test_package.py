"""The package entry point: what ``import msograph`` loads, and its
exports, each checked in a fresh interpreter."""

import json
import os
import subprocess
import sys

# the modules the benchmark's workloads import
BENCH_MODULES = ("bichain_family", "graphs", "interpret", "logic", "search",
                 "widths", "word_family")


def _fresh(code: str):
    """The JSON value that code prints in a new interpreter, which sees
    the modules loaded before it as ``before``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\nbefore = set(sys.modules)\n" + code],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_import_loads_no_module_of_the_package_and_no_dataclasses():
    loaded = _fresh(
        "import msograph\n"
        "bare = sorted(set(sys.modules) - before)\n"
        f"from msograph import {', '.join(BENCH_MODULES)}\n"
        "print(json.dumps([bare, sorted(set(sys.modules) - before)]))")
    bare, bench = loaded
    assert bare == ["msograph"]
    assert "dataclasses" not in bench and "inspect" not in bench
    assert {f"msograph.{m}" for m in BENCH_MODULES} <= set(bench)
    for unused in ("msograph.verify", "msograph.cli", "msograph.power_family"):
        assert unused not in bench


def test_exports_load_on_first_use():
    seen = _fresh(
        "import msograph\n"
        "names = msograph.__all__\n"
        "resolved = [n for n in names if getattr(msograph, n) is not None]\n"
        "listed = set(names) <= set(dir(msograph))\n"
        "try:\n"
        "    msograph.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "star = {}\n"
        "exec('from msograph import *', star)\n"
        "print(json.dumps([names, resolved, listed, unknown,\n"
        "                  sorted(set(star) - {'__builtins__'})]))")
    names, resolved, listed, unknown, star = seen
    assert len(names) == 66 and names == sorted(names)
    assert resolved == names and listed
    assert unknown == "module 'msograph' has no attribute 'no_such_name'"
    assert star == names


def test_modules_are_attributes_after_a_bare_import():
    seen = _fresh(
        "import msograph\n"
        "f = msograph.logic.parse_formula('E(x, y)')\n"
        "print(json.dumps([type(f).__name__, msograph.syntax.__name__,\n"
        "                  msograph.apply is msograph.interpret.apply]))")
    assert seen == ["EdgeAtom", "msograph.syntax", True]


def test_the_command_line_imports_no_family_suite_or_inspect_for_help():
    loaded = _fresh(
        "import contextlib, io\n"
        "from msograph import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(json.dumps([sorted(set(sys.modules) - before),\n"
        "                  'verify' in out.getvalue()]))")
    modules, listed = loaded
    assert "msograph.cli" in modules and listed
    for unused in ("inspect", "msograph.verify", "msograph.word_family",
                   "msograph.bichain_family", "msograph.power_family"):
        assert unused not in modules
