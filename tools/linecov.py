"""List the lines of ``src/ptcsolver`` that a pytest run never executes.

Standard library only.  pytest runs in this process under ``sys.settrace``:
tier-1 takes minutes and its wall-clock gates fail.  From the repo root::

    python tools/linecov.py [pytest arguments]
"""
import runpy
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ptcsolver"
hit = set()


def _line(frame, event, arg):
    hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _lines(code):
    yield from (line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _lines(const)


sys.path.insert(0, str(SRC.parent))
sys.argv = ["pytest", "-q", "-p", "no:cacheprovider", *sys.argv[1:]]
sys.settrace(lambda frame, event, arg: _line if frame.f_code.co_filename.startswith(str(SRC)) else None)
try:
    runpy.run_module("pytest", run_name="__main__")
except SystemExit as done:  # pytest always ends this way
    sys.settrace(None)
    status = done.code
for path in sorted(SRC.glob("*.py")):
    text, seen = path.read_text(), {n for f, n in hit if f == str(path)}
    for n in sorted(set(_lines(compile(text, str(path), "exec"))) - seen):
        print(f"src/ptcsolver/{path.name}:{n}: {text.splitlines()[n - 1].strip()}")
sys.exit(status)
