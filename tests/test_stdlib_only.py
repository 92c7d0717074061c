import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Run with -S so that the interpreter's site-packages, and the modules their
# .pth files import at start-up, are not on the path: only the standard
# library and `src` are, so a third-party import in ontokit fails here.
_IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import ontokit
names = sorted(m.name for m in pkgutil.iter_modules(ontokit.__path__))
for name in names:
    importlib.import_module("ontokit." + name)
print(" ".join(names))
print(" ".join(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_every_module_imports_with_the_standard_library_alone():
    done = subprocess.run([sys.executable, "-S", "-c", _IMPORT_EVERY_MODULE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    imported, loaded = (line.split() for line in done.stdout.splitlines())
    assert sorted(imported) == sorted(p.stem for p in (SRC / "ontokit").glob("*.py")
                                      if p.stem != "__init__")
    outside = set(loaded) - set(sys.stdlib_module_names) - {"ontokit", "__main__"}
    assert not outside, sorted(outside)


_MODULES_AFTER_CLI_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
import ontokit, ontokit.cli
print(" ".join(sorted(sys.modules)))
"""


def test_importing_the_cli_loads_only_what_it_runs():
    # Every CLI call pays for its imports. `html` is not needed to escape
    # the site's text, and the published counts that `stats` compares with
    # live in the model, so neither `html` nor the bundled ontology's
    # builder (`ontokit.disease`) is loaded. As above, -S keeps start-up
    # imports out; the warning options are passed on, so a warning raised
    # while the records are made fails under -W error.
    done = subprocess.run([sys.executable, "-S", *(f"-W{option}" for option in sys.warnoptions),
                           "-c", _MODULES_AFTER_CLI_IMPORT, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert not loaded & {"html", "html.entities", "ontokit.disease"}
    assert {name for name in loaded if name.partition(".")[0] == "ontokit"} == {
        "ontokit", "ontokit.analysis", "ontokit.cli", "ontokit.model", "ontokit.parser",
        "ontokit.reasoner", "ontokit.sitegen", "ontokit.tableau", "ontokit.taxonomy"}
