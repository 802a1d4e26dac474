"""The CLI's result files keep their bytes.

Runs the six CLI stages of the ``smoke`` plans of the three benchmark
workloads in-process and compares the sha256 of every file they write,
except ``run_manifest.json`` (it holds wall times), and of the raw input
``hub-raw`` builds itself, with the digests in
``output_digests.json`` beside this file. A refactor that means to keep
every output byte must pass with no digest changed. Rewrite the digests
only with a change that moves the outputs on purpose, by running this
file as a script, and keep the NumPy version it records.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from egolink import cli
from test_bench_spans import workloads

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_digests.json")
WORKLOADS = ("planted-undirected", "triad-directed", "hub-raw")
SEED = 0


def stage_digests(name, workdir):
    """{stage/relative path: sha256} of every result file of one smoke plan,
    and of its benchmark-built input when it has one."""
    plan = workloads.plan(name, SEED, "smoke", str(workdir))
    paths = {}
    if workloads.prepare_inputs(plan) is not None:
        paths["input/" + os.path.basename(plan.input_path)] = plan.input_path
    for stage, argv in plan.stage_argv.items():
        assert cli.main(argv) == 0, stage
        out = plan.out(stage)
        for root, _, files in os.walk(out):
            for fname in files:
                if fname != "run_manifest.json":
                    path = os.path.join(root, fname)
                    paths[f"{stage}/{os.path.relpath(path, out)}"] = path
    digests = {}
    for key, path in paths.items():
        with open(path, "rb") as fh:
            digests[key] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_match_digests(name, tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        doc = json.load(fh)
    got = stage_digests(name, tmp_path)
    assert got == doc["digests"][name], (
        f"output bytes moved (digests taken under NumPy {doc['numpy']}, "
        f"running {np.__version__})")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"numpy": np.__version__, "seed": SEED,
               "digests": {n: stage_digests(n, os.path.join(tmp, n)) for n in WORKLOADS}}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(f"wrote {DIGESTS}\n")
