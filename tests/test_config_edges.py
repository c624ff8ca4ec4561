"""A run at the edges of the config space ends in one of three ways.

Building a config from any fields and running it either returns a summary
whose numbers are all finite, raises :class:`ConfigError` naming a field,
or raises :class:`InvariantViolation` naming an iteration; never another
exception, and never a numpy warning (the test suite turns a
``RuntimeWarning`` into an error). Each field is drawn from a few values: usually its default, its
smallest allowed value, and values near the ends of the float range. ``L``
is drawn as a multiple of ``mu``, so both sides of the conditioning bound
come up, and sizes and mixings fit their topology and algorithm, so that
the config does not reject most draws for those alone.

Examples are drawn with ``derandomize=True``, so a failure reproduces,
and the suite's warning filters let a failing property print its example.
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgrad.algorithms import ALGORITHMS
from netgrad.errors import ConfigError, InvariantViolation
from netgrad.harness import MIXINGS, ExperimentConfig, prepare_run, run_experiment

HUGE = sys.float_info.max
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

#: Edge values of each field but ``topology``, ``agents``, ``mixing`` and
#: ``L``, which :func:`edge_configs` draws to fit one another.
EDGES = {
    "algo": ALGORITHMS,
    "d": (1, 2, 5),
    "mu": (1e-300, 1e-12, 1.0, 1e8, 1e300),
    "sigma_bar": (0.0, 1e-300, 1.0, 1e300),
    "heterogeneity": (0.0, 1.0, 1e300),
    "problem_seed": (0, 7, 2**64),
    "schedule": ("auto", "constant", "decaying"),
    "step_multiplier": (1e-300, 1.0, 64.0, 1e300),
    "dsgt_tuning": ("matched", "tuned"),
    "iters": (1, 2, 65),
    "seed": (0, 2**64),
    "stride": (1, 7, 10**9),
    "x0_radius": (None, 0.0, 3.0, 1e300),
    "eps_stop": (None, 1e-300, 1e-3, 1e300),
    "avg_checkpoints": ((), (0,), (1, 10**9)),
    "label": (None, "", "x"),
    "out": (None, "x.csv"),
}
#: ``L / mu``: equal, the usual 2, both sides of the conditioning bound,
#: and products past the largest float.
CONDITIONS = (1.0, 2.0, 1e8, 1e12, 1e13, 1e300, HUGE)
SIZES = {"ring": (1, 2, 16), "grid": (1, 4, 9), "star": (1, 2, 16), "complete": (1, 2, 16)}


@st.composite
def edge_configs(draw) -> dict:
    """The keyword arguments of one edge config; building it may raise."""
    fields = draw(st.fixed_dictionaries({name: st.sampled_from(values) for name, values in EDGES.items()}))
    topology = draw(st.sampled_from(sorted(SIZES)))
    mixing = "lazy-metropolis" if fields["algo"] == "assdsgt" else draw(st.sampled_from(MIXINGS))
    # A gossip draw needs an edge.
    sizes = [m for m in SIZES[topology] if mixing != "random-gossip" or m >= 2]
    return dict(
        topology=topology,
        agents=draw(st.sampled_from(sizes)),
        mixing=mixing,
        L=fields["mu"] * draw(st.sampled_from(CONDITIONS)),
        **fields,
    )


def _numbers(value) -> list[float]:
    """Every number in a summary value, nested dicts included."""
    if isinstance(value, dict):
        return [number for item in value.values() for number in _numbers(item)]
    return [value] if isinstance(value, float) else []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(kwargs=edge_configs())
def test_a_run_at_the_edges_ends_finite_or_names_its_field_or_iteration(kwargs):
    try:
        summary = run_experiment(ExperimentConfig(**kwargs)).summary
    except ConfigError as exc:
        assert exc.field is not None, str(exc)
    except InvariantViolation as exc:
        assert exc.iteration is not None, str(exc)
    else:
        assert all(map(math.isfinite, _numbers(summary))), summary


@pytest.mark.parametrize(
    "overrides",
    [
        dict(algo="dsgt", schedule="constant", step_multiplier=1e-300),
        # The decay scale stays positive; the step 6 beta / L does not.
        dict(schedule="decaying", step_multiplier=1e-30, iters=3),
    ],
    ids=["constant", "decaying"],
)
def test_a_step_size_that_underflows_names_the_step_multiplier(overrides):
    with pytest.raises(ConfigError) as caught:
        run_experiment(ExperimentConfig(L=1e300, mu=1e290, **overrides))
    assert caught.value.field == "step_multiplier"


@pytest.mark.parametrize("d", [2, 3, 5])
def test_a_large_L_problem_runs(d):
    # An absolute 1e-9 tolerance on the curvature bounds rejected 35 of
    # these 60 problems: eigenvalues of size 1e8 carry rounding near 1e-8.
    # So did L = mu = 1e8.
    for problem_seed in range(20):
        prepare_run(ExperimentConfig(agents=16, d=d, L=1e8, problem_seed=problem_seed))
    for mu in (1.0, 1e8):
        summary = run_experiment(ExperimentConfig(d=d, mu=mu, L=1e8, iters=5)).summary
        assert all(map(math.isfinite, _numbers(summary)))


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # Hypothesis imports libcst to report a failure, and that import warns
    # with a DeprecationWarning the suite's filters must let through.
    (tmp_path / "test_one.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n",
        encoding="utf-8",
    )
    command = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_one.py"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "Falsifying example" in done.stdout, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
