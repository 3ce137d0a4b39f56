"""The library names that the benchmark's traced mode wraps stay in place.

`perfbench/layers.py` patches the program's entry points by name
(`Tracer.install`), and its counters call some of them back, so a name
renamed, deleted or given another signature breaks every traced run.
The test runs one warm traced request the way `perfbench/run.py` does,
and changes nothing under `perfbench/`.
"""

import importlib.util
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from click.testing import CliRunner

from surfcount import cli
from surfcount.cache import CountCache

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.Tracer([0])


def test_traced_warm_request_finds_every_wrapped_name(tmp_path):
    # install() reads put_row, put_scalar and every other wrapped name off
    # its owner; the warm request reads the view's records, and each row it
    # serves calls get_row(model, n, g2) and get_scalar back
    argv = ["maps", "--bivariate", "--n-max", "6", "--cache", str(tmp_path / "counts.ndjson")]
    cold = CliRunner().invoke(cli.main, argv)
    assert cold.exit_code == 0
    originals = dict(vars(CountCache))
    tracer, out = _tracer(), StringIO()
    try:
        tracer.install()
        with redirect_stdout(out):
            tracer.request(lambda: cli.main.main(args=argv, prog_name="surfcount",
                                                 standalone_mode=False))
    finally:
        tracer.uninstall()
    assert out.getvalue() == cold.stdout
    counts = tracer.counts
    assert counts["cache.records_loaded"] > 0
    assert counts["cache.get_row_calls"] == counts["cache.rows_served"] == 4 + 5 + 6 + 7
    assert not [name for name, value in counts.items() if name.endswith(".errors") and value]
    assert dict(vars(CountCache)) == originals
