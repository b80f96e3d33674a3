"""The package binds no names of its own: each public name lives in one module,
`scalarnet.<module>` is always that module, and every module imports on its
own, so an import cycle cannot hide behind an eager package `__init__`."""

import os
import subprocess
import sys
from pathlib import Path

import scalarnet

SRC = Path(scalarnet.__file__).parent.parent

# Run in a fresh interpreter: the test session has already imported scalarnet.
CHECK = """
import importlib, pkgutil, sys

def forget():
    for key in [k for k in sys.modules if k == "scalarnet" or k.startswith("scalarnet.")]:
        del sys.modules[key]

import scalarnet
names = sorted(m.name for m in pkgutil.iter_modules(scalarnet.__path__))
assert "train" in names and "tensor" in names, names
for name in names:
    forget()
    importlib.import_module("scalarnet." + name)

def public():
    return sorted(n for n in vars(sys.modules["scalarnet"]) if not n.startswith("_"))

forget()
import scalarnet
for name in names:
    importlib.import_module("scalarnet." + name)
for name in names:
    assert getattr(scalarnet, name) is sys.modules["scalarnet." + name], name
assert public() == names, public()
forget()
import scalarnet
assert public() == [], public()

import scalarnet.tensor
import scalarnet.train as m
assert m is sys.modules["scalarnet.train"] and m.train.__module__ == "scalarnet.train"
assert scalarnet.train.train is m.train
assert scalarnet.tensor.Rng.__module__ == "scalarnet.tensor"
assert scalarnet.tensor.no_grad.__module__ == "scalarnet.tensor"

# the engine stands alone: it imports no stage, layer or other module of the package
forget()
import scalarnet.tensor
loaded = sorted(k for k in sys.modules if k.startswith("scalarnet."))
assert loaded == ["scalarnet.errors", "scalarnet.tensor"], loaded
print("ok", len(names))
"""


def test_each_name_has_one_home():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", CHECK], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ok ")
