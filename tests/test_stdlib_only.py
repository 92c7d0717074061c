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
