"""Start-up cost: what `import partition_gf.cli` loads, and that running a
command after it imports nothing more.

Each check runs in a fresh interpreter, with and without `site`: a site hook
that imports a module first would hide that the package imports it too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partition_gf

SRC = str(Path(partition_gf.__file__).resolve().parents[1])

# Only `oeis --fetch` needs the network stack; dataclasses imports inspect.
NOT_AT_START = {"urllib.request", "http.client", "email", "ssl", "socket", "dataclasses", "inspect"}

# One small offline run of every command, method and verify suite.
JOBS = [
    *(["compute", "--n", "40", "--distances", "2,2", "--method", m]
      for m in ("enumerate", "series", "quasipoly", "all")),
    ["series", "--distances", "1", "--order", "30"],
    ["fit", "--distances", "3"],
    *(["verify", "--suite", s, "--t-max", "3", "--n-max", "60", "--order", "20"]
      for s in ("routes", "identities", "asymptotics", "oeis")),
    ["oeis", "--id", "A008805", "--n-max", "60"],
]

LIST_MODULES = "import sys; print('\\n'.join(sys.modules))"

SITE = pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])


def _python(flags, code: str) -> str:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@SITE
def test_import_loads_no_network_stack_and_no_dataclasses(flags):
    bare = set(_python(flags, LIST_MODULES).split())
    added = set(_python(flags, "import partition_gf.cli\n" + LIST_MODULES).split()) - bare
    assert "partition_gf.cli" in added
    assert sorted(added & NOT_AT_START) == []


@SITE
def test_no_command_imports_a_module_after_start_up(flags):
    code = (
        "import contextlib, io, json, sys\n"
        "from partition_gf import cli\n"
        "before, imported = set(sys.modules), []\n"
        f"for argv in {JOBS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    new = set(sys.modules) - before\n"
        "    before |= new\n"
        "    imported.append([' '.join(argv), code, sorted(new)])\n"
        "print(json.dumps(imported))\n"
    )
    runs = json.loads(_python(flags, code))
    assert [code for _, code, _ in runs] == [0] * len(JOBS)
    assert [(job, new) for job, _, new in runs if new] == []
