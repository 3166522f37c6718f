"""The benchmark's span tracer still finds every function it wraps.

perfbench/spans.py wraps the functions named in its TARGETS at every
binding in the loaded cfkit modules; a target that no longer resolves
breaks the benchmark's --trace runs.  The tracer is imported read-only,
as tests/test_golden.py imports the benchmark's runner.
"""

import sys
from pathlib import Path

import cfkit.cli  # noqa: F401  (loads every module the targets name)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from spans import TARGETS, Tracer  # noqa: E402


def _resolve(modname, attr):
    owner = sys.modules[modname]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def _bindings():
    """Every global of every loaded cfkit module, and every method a
    dotted target names."""
    out = {(m, a): _resolve(m, a) for m, a, _ in TARGETS if "." in a}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "cfkit" or name.startswith("cfkit.")):
            out.update(((name, key), val) for key, val in vars(mod).items())
    return out


def test_every_target_is_wrapped_and_restored():
    before = _bindings()
    originals = {(m, a): _resolve(m, a) for m, a, _ in TARGETS}
    tracer = Tracer()
    tracer.install()
    try:
        for (modname, attr), orig in originals.items():
            assert _resolve(modname, attr).__wrapped__ is orig, (modname, attr)
        assert tracer.bindings >= len(TARGETS)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())
