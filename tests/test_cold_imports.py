"""A cold command loads only the modules it uses.

Each command runs in a fresh interpreter through ``runpy``, as
``python -m arrcover`` runs it, and reports the modules it loaded.  The
package itself is lazy: importing it loads no submodule, and each exported
name loads its own module on first access.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrcover
from arrcover import catalog
from arrcover.fileformat import serialize_arrangement

SRC = str(Path(arrcover.__file__).parent.parent)

# Runs the command line as ``python -m arrcover ARGS`` does, then prints the
# exit code and the names of every loaded module as the last stderr line.
PROBE = """
import runpy, sys
sys.argv = ["arrcover", *sys.argv[1:]]
try:
    runpy.run_module("arrcover", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(code, *sorted(sys.modules), file=sys.stderr)
"""

UNUSED_BY_GEOMETRY = {
    "arrcover.covers", "arrcover.osalgebra", "arrcover.exactlin", "arrcover.fileformat",
    "dataclasses", "inspect",
}


def loaded(*argv, cwd=None) -> tuple[int, set[str]]:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=60)
    code, *modules = proc.stderr.splitlines()[-1].split()
    return int(code), set(modules)


@pytest.mark.parametrize("command", ["info", "lattice"])
def test_geometry_commands_load_no_cover_algebra_or_file_modules(command):
    code, modules = loaded(command, "--catalog", "selberg")
    assert code == 0
    assert "arrcover.arrangement" in modules
    assert not modules & UNUSED_BY_GEOMETRY


def test_os_loads_no_cover_or_cohomology_modules():
    code, modules = loaded("os", "--catalog", "selberg")
    assert code == 0
    assert "arrcover.osalgebra" in modules
    assert not modules & {"arrcover.covers", "arrcover.exactlin", "dataclasses"}


COMMANDS = {
    "info --catalog selberg": 0,
    "lattice --catalog selberg": 0,
    "os --catalog selberg --matrices": 0,
    "local-betti --catalog selberg --k 3": 0,
    "cover-betti --catalog selberg --m 6": 0,
    "cover-betti --catalog ceva3 --m 3": 2,
    "charpoly --catalog selberg --m 6 --q 1": 0,
    "periodicity --catalog selberg": 0,
    "zeta --catalog selberg --q 1": 0,
    "catalog list": 0,
    "catalog show selberg": 0,
    "info --file selberg.json": 0,
    "info --file missing.json": 1,
}
COVERS_COMMANDS = {"local-betti", "cover-betti", "charpoly", "periodicity", "zeta"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_loads_dataclasses(tmp_path, command):
    selberg = catalog.get("selberg").arrangement
    (tmp_path / "selberg.json").write_text(serialize_arrangement(selberg, "selberg"))
    argv = command.split()
    code, modules = loaded(*argv, cwd=tmp_path)
    assert code == COMMANDS[command]
    assert "dataclasses" not in modules
    assert ("arrcover.covers" in modules) == (argv[0] in COVERS_COMMANDS)
    assert ("arrcover.fileformat" in modules) == ("--file" in argv or "show" in argv)


def test_every_exported_name_resolves():
    assert len(arrcover.__all__) == 44
    for name in arrcover.__all__:
        value = getattr(arrcover, name)
        assert value is not None
    assert arrcover.cover_betti is sys.modules["arrcover.covers"].cover_betti
    with pytest.raises(AttributeError):
        arrcover.no_such_name  # noqa: B018


def test_package_import_is_lazy():
    code = (
        "import json, sys; import arrcover; before = sorted(sys.modules); "
        "from arrcover import covers; arrcover.beta; "
        "print(json.dumps([before, sorted(sys.modules), covers.__name__]))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    before, after, covers = json.loads(proc.stdout)
    assert [m for m in before if m.startswith("arrcover")] == ["arrcover"]
    # a submodule that is not an exported name is still importable by name
    assert covers == "arrcover.covers"
    assert {"arrcover.covers", "arrcover.arrangement"} <= set(after)
