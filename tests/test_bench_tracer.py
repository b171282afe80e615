"""The benchmark's tracer (bench/tracing.py) patches library functions by
name.  Constructing it resolves every traced name, so a rename in the
library fails here, in the tier-1 suite, and not only in a traced
benchmark run."""

import importlib
import os

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def test_tracer_resolves_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(BENCH))
    tracing = importlib.import_module("tracing")
    borel = importlib.import_module("mouldcalc.borel")
    tracer = tracing.Tracer()
    assert len(tracer._targets) == len(tracing.TRACED) == 31
    original = borel.conv
    with tracer:
        assert borel.conv is not original
    assert borel.conv is original


def test_benchmark_command_lines_parse(monkeypatch):
    """Every benchmark job's command line, `--threads 1` included, is
    accepted by the CLI parser and gives a run configuration."""
    monkeypatch.syspath_prepend(os.path.abspath(BENCH))
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module("mouldcalc.cli")
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        argv = workloads.job_argv(workload, "f.json", "out", "c.json")
        config = cli.config_from_args(parser.parse_args(argv))
        assert (config.field_path, config.output_dir) == ("f.json", "out")
        assert config.n_max == workloads.N_MAX
