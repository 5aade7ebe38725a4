"""The benchmark's span tracer finds every function it names in the library.

`perfbench/spans.py` looks its targets up by module and qualified name; a
renamed or deleted target raises `KeyError` when the benchmark installs the
tracer.  This test installs it here so that such a rename fails the test
suite first.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, qualname):
    *path, attr = qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_resolves_and_restores_every_target():
    spans = _load_spans()
    modules = {m: importlib.import_module(f"cayleyltc.{m}") for m in spans.LIBRARY_MODULES}
    before = {}
    for mod_name, qualname, _, _ in spans.TARGETS:
        owner, attr = _resolve(modules[mod_name], qualname)
        before[mod_name, qualname] = owner.__dict__[attr]
    copies = {m: dict(vars(mod)) for m, mod in modules.items()}

    tracer = spans.Tracer()
    try:
        tracer.install()
        for mod_name, qualname, _, _ in spans.TARGETS:
            owner, attr = _resolve(modules[mod_name], qualname)
            assert owner.__dict__[attr].__wrapped__ is before[mod_name, qualname]
    finally:
        tracer.uninstall()

    for mod_name, qualname, _, _ in spans.TARGETS:
        owner, attr = _resolve(modules[mod_name], qualname)
        assert owner.__dict__[attr] is before[mod_name, qualname]
    for m, mod in modules.items():
        assert all(vars(mod)[k] is v for k, v in copies[m].items())
