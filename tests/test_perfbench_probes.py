"""The traced benchmark wraps package functions by name; a rename in the
package must fail here rather than in a benchmark run."""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_layer_probes_install_on_the_package(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import layers
    import worker
    from tracing import Tracer

    tracer = Tracer()
    try:
        # raises AttributeError when a wrapped name is missing from the package
        layers.install_layer_probes(tracer, worker.import_package())
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, orig in patched:
        assert vars(owner)[attr] is orig
