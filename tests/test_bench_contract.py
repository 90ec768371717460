"""The benchmark harness in perfbench/ still resolves every package hook.

perfbench/spans.py wraps package functions by name and perfbench/child.py
re-calls some of them with a fixed argument shape.  A rename, a removed
function or a changed call shape makes a per-layer metric read None, and
the benchmark's own tests tolerate that.  This test runs a tiny operation
of each kind through the CLI under the tracer, the way child.py does, and
requires every hook present and every per-layer metric defined.
"""

import os
import sys

import pytest

from necklace_walks import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

OPS = [
    ["mix", "--comb-d", "1", "--K", "12", "--start", "3,base", "--eps", "0.1",
     "--T-hi", "100"],
    ["limiting", "--comb-d", "1", "--K", "12", "--start", "2,base", "--closed-form"],
    ["spectrum", "--comb-d", "2", "--K", "8"],
    ["gap-scan", "--d", "0,1", "--K", "16..32", "--threads", "2"],
]


@pytest.fixture
def harness(monkeypatch):
    """perfbench's spans and child modules, imported without writing there."""
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import child
    import spans

    yield spans, child
    for name in ("spans", "child"):
        sys.modules.pop(name, None)


def test_traced_cli_run_defines_every_layer_metric(harness, tmp_path):
    spans, child = harness
    tracer = spans.Tracer()
    tracer.install()
    ops = []
    try:
        for i, argv in enumerate(OPS):
            output = tmp_path / f"op{i}.csv"
            tracer.op = i
            rec = tracer.open("cli.op")
            code = cli.main(argv + ["--output", str(output)])
            tracer.close(rec)
            child._time_averager_setup(tracer)
            assert code == 0, argv
            ops.append({"bytes_out": output.stat().st_size, "warnings": 0})
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    values = spans.layer_metrics(tracer.export(), ops)
    assert [name for name, value in values.items() if value is None] == []
    assert values["dynamics.averager_builds"] == 2   # one per mix, one per limiting
    assert values["dynamics.T_points"] > 0
