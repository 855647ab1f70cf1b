"""Wall time of ``import clutterlab``, split into source compile, class
creation and the rest; once with the package compiled from source and once
with it read from bytecode.

Usage, from the root of a checkout::

    python3 tools/probe_import.py               # one line per condition
    python3 tools/probe_import.py --repeat 5    # five lines per condition

Each line is measured in a fresh interpreter. The parts are exclusive
times of the import:

- compile: ``SourceFileLoader.source_to_code``, compiling a module's source;
- classes: building classes, i.e. ``builtins.__build_class__`` (class
  bodies, metaclasses, ``__init_subclass__``) plus ``dataclasses``'
  ``_process_class``, the ``@dataclass`` decorator that formats and compiles
  its methods, whenever the import loads ``dataclasses``;
- rest: everything else (executing module bodies, finding and reading files,
  extension modules, unmarshalling bytecode).

Classes of the standard library modules that the import loads count too.
The standard library is read from its bytecode in both conditions; only the
package's modules switch. "from source" is how ``certbench`` children import
the package when ``PYTHONDONTWRITEBYTECODE`` is set, "from bytecode" how a
returning command-line user does. Bytecode goes to a temporary
``PYTHONPYCACHEPREFIX`` directory, so nothing is written into the checkout.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clutterlab"


def _measure(label: str) -> str:
    import builtins
    from importlib.machinery import SourceFileLoader

    spent = {"compile": 0.0, "classes": 0.0}
    counts = {"compile": 0, "classes": 0}
    stack: list[list] = []  # [kind, start of its running stretch], innermost last

    def timed(kind, fn):
        def wrapper(*args, **kwargs):
            now = time.perf_counter()
            if stack:  # pause the enclosing part
                spent[stack[-1][0]] += now - stack[-1][1]
            stack.append([kind, now])
            counts[kind] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = time.perf_counter()
                spent[kind] += now - stack.pop()[1]
                if stack:
                    stack[-1][1] = now
        return wrapper

    honest_exec = SourceFileLoader.exec_module

    def exec_module(loader, module):
        honest_exec(loader, module)
        if module.__name__ == "dataclasses":
            module._process_class = timed("classes", module._process_class)

    SourceFileLoader.source_to_code = timed("compile", SourceFileLoader.source_to_code)
    SourceFileLoader.exec_module = exec_module
    builtins.__build_class__ = timed("classes", builtins.__build_class__)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import clutterlab  # noqa: F401
    total = time.perf_counter() - t0

    ms = {kind: 1000 * s for kind, s in spent.items()}
    rest = 1000 * total - ms["compile"] - ms["classes"]
    return (
        f"import clutterlab, package from {label}: {1000 * total:.1f} ms = "
        f"compile {ms['compile']:.1f} + classes {ms['classes']:.1f} + rest {rest:.1f} ms "
        f"({counts['compile']} modules compiled, {counts['classes']} classes)"
    )


def _child(label: str, env: dict[str, str]) -> str:
    done = subprocess.run([sys.executable, __file__, "--part", label], capture_output=True, text=True, env=env)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(done.returncode)
    return done.stdout


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=1, help="lines per condition (default 1)")
    ap.add_argument("--part", choices=("source", "bytecode"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.part:
        print(_measure(args.part))
        return 0
    with tempfile.TemporaryDirectory() as prefix:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPYCACHEPREFIX"] = prefix
        # a first import writes the bytecode of everything it loads; the
        # package's part of it is then deleted for the source lines
        _child("bytecode", env)
        with_bytecode = [_child("bytecode", env) for _ in range(args.repeat)]
        shutil.rmtree(Path(prefix + str(PACKAGE)))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        from_source = [_child("source", env) for _ in range(args.repeat)]
    sys.stdout.write("".join(from_source + with_bytecode))
    return 0


if __name__ == "__main__":
    sys.exit(main())
