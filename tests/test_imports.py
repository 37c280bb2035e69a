"""Import-time contract, checked in a fresh interpreter each time.

``ptcsolve solve`` must not load the iteration method or the scanner, and
the package must still export every public name, loaded or not.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap

import ptcsolver

LAZY_MODULES = ("ptcsolver.analysis", "ptcsolver.iteration")


def run_fresh(code: str, env: dict[str, str]) -> object:
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_solve_loads_neither_iteration_nor_analysis(child_env):
    loaded = run_fresh(
        """
        import json, sys
        import ptcsolver.cli
        after_import = sorted(m for m in sys.modules if m.startswith("ptcsolver"))
        code = ptcsolver.cli.main(["solve", "--json", "--set", "F=16240", "--set", "P=10390",
                                   "--set", "Q=10390", "--set", "I=71150", "--set", "tax_year=2018"])
        assert code == 0
        after_solve = sorted(m for m in sys.modules if m.startswith("ptcsolver"))
        print(json.dumps([after_import, after_solve]))
        """,
        child_env,
    )
    after_import, after_solve = loaded
    assert "ptcsolver.cli" in after_import
    for module in LAZY_MODULES:
        assert module not in after_import
        assert module not in after_solve


def test_every_public_name_is_its_submodules_object(child_env):
    report = run_fresh(
        """
        import importlib, json, pkgutil
        import ptcsolver
        exported = {name: getattr(ptcsolver, name) for name in ptcsolver.__all__}
        owners = {name: [] for name in exported}
        for info in pkgutil.iter_modules(ptcsolver.__path__):
            module = importlib.import_module(f"ptcsolver.{info.name}")
            for name, value in exported.items():
                if name in vars(module):
                    owners[name].append(vars(module)[name] is value)
        from ptcsolver import run_iteration, scan_divergence
        print(json.dumps({
            "owners": owners,
            "from_import": [run_iteration is exported["run_iteration"],
                            scan_divergence is exported["scan_divergence"]],
        }))
        """,
        child_env,
    )
    assert set(report["owners"]) == set(ptcsolver.__all__)
    for name, same in report["owners"].items():
        assert same, f"{name} is defined in no submodule"
        assert all(same), f"ptcsolver.{name} is not its submodule's object"
    assert report["from_import"] == [True, True]


def test_dir_lists_lazy_names_and_unknown_names_raise(child_env):
    report = run_fresh(
        """
        import json, sys
        import ptcsolver
        missing = sorted(set(ptcsolver.__all__) - set(dir(ptcsolver)))
        try:
            ptcsolver.no_such_name
        except AttributeError as exc:
            error = str(exc)
        else:
            error = None
        loaded = [m for m in ("ptcsolver.analysis", "ptcsolver.iteration") if m in sys.modules]
        print(json.dumps({"missing": missing, "error": error, "loaded": loaded}))
        """,
        child_env,
    )
    assert report["missing"] == []
    assert report["error"] == "module 'ptcsolver' has no attribute 'no_such_name'"
    assert report["loaded"] == []


def test_dir_lists_every_public_name_in_process():
    # The test above reads dir() in a child interpreter, out of sight of
    # tools/linecov.py; this one runs __dir__ in the test process.
    assert set(ptcsolver.__all__) <= set(dir(ptcsolver))
