"""Every output path against the golden reference runs of ``tests/golden``.

On a machine whose ``make.platform_key()`` is the one stored with the data,
every output must match exactly, since output bytes are reproducible on one
machine at any thread count. Only an exact match sees a change below the
tolerances, such as a kick that skips the ``_SLICE_EPS`` trim, which moves
kicked values by less than 1e-15. Elsewhere kicked columns are compared
within the blocked kick's tolerance: 1e-14 relative in ``dispersion``, 1e-14
absolute in ``norm`` and 2e-15 absolute in ``p_m0``; zeno values within
1e-12 relative, and classical values within 1e-12 relative up to kick
``CLASSICAL_HORIZON`` only. The last three tests show that one ulp more in
every ``np.exp`` or ``np.sin`` value, as another machine's SIMD or libm code
may give, or in every entry of the turn table that the all-states readout
and the zeno Monte Carlo share, which comes from ``np.sin`` and ``np.cos``,
stays within these tolerances.
"""

import importlib.util
import json
import pathlib
import re

import numpy as np
import pytest

# imported before a test patches numpy, so that no module constant sees the patch
import zenomap.cli  # noqa: F401
from zenomap import measurement

_SPEC = importlib.util.spec_from_file_location(
    "golden_make", pathlib.Path(__file__).with_name("golden") / "make.py"
)
make = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make)

KICKED_TOLERANCE = {"dispersion": (1e-14, 0.0), "norm": (0.0, 1e-14), "p_m0": (0.0, 2e-15)}
ELSEWHERE_RTOL = 1e-12
# Classical runs at K = tau*k = 10 are chaotic: one ulp more in every np.sin
# value moves the classical document's dispersion by 8e-14 relative at kick 5,
# 3e-12 at kick 7 and 2 % at kick 50. Off the generating platform classical
# values are compared up to this kick only; the diffusion estimate and ratio
# that `zenomap classical` prints come from its last kick and are not compared
# there. Acceptance criterion 8 checks classical diffusion statistically.
CLASSICAL_HORIZON = 5
_PAST_HORIZON = re.compile(r"(B = |ratio: +)\S+")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


GOLDEN = json.loads(make.GOLDEN.read_text(encoding="utf-8"))


def _values(lines):
    return np.array([[float(x) for x in line.split(",")] for line in lines])


@pytest.fixture(scope="module")
def outputs():
    return make.generate()


def test_golden_cases_are_the_generated_cases(outputs):
    assert list(outputs) == list(GOLDEN["outputs"])


def _compare(expected: dict, actual: dict, exact: bool, horizon=None) -> None:
    """``horizon``: compare kicks ``j <= horizon`` only, and no printed
    value taken from a later kick."""
    if exact:
        assert actual == expected
        return
    if expected["kind"] == "stdout":
        want, got = expected["stdout"], actual["stdout"]
        if horizon is not None:
            want, got = _PAST_HORIZON.sub(r"\1#", want), _PAST_HORIZON.sub(r"\1#", got)
        # printed with 4 decimals: allow one unit in the last place
        assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want)
        got = [float(x) for x in _NUMBER.findall(got)]
        want = [float(x) for x in _NUMBER.findall(want)]
        np.testing.assert_allclose(got, want, rtol=ELSEWHERE_RTOL, atol=1e-4)
        return
    header, *rows = expected["csv"]
    assert actual["csv"][0] == header
    got, want = _values(actual["csv"][1:]), _values(rows)
    assert got.shape == want.shape
    if horizon is not None:
        got, want = got[want[:, 0] <= horizon], want[want[:, 0] <= horizon]
    if expected["kind"] == "csv":
        np.testing.assert_allclose(got, want, rtol=ELSEWHERE_RTOL, atol=0.0)
        return
    header = header.split(",")
    assert np.array_equal(got[:, 0], want[:, 0])
    for column, (rtol, atol) in KICKED_TOLERANCE.items():
        at = header.index(column)
        np.testing.assert_allclose(got[:, at], want[:, at], rtol=rtol, atol=atol, err_msg=column)


def _horizon(name: str):
    return CLASSICAL_HORIZON if name.startswith("classical") else None


@pytest.mark.parametrize("name", list(GOLDEN["outputs"]))
def test_output_matches_golden(outputs, name):
    exact = GOLDEN["platform"] == make.platform_key()
    _compare(GOLDEN["outputs"][name], outputs[name], exact, _horizon(name))


def _one_ulp_up(monkeypatch, outputs: dict, function: str) -> dict:
    """Every case, with one ulp more in each real and imaginary part that
    ``np.<function>`` returns; returns the outputs that differ from this
    machine's unperturbed ones."""
    exact = getattr(np, function)

    def one_ulp_up(*args, out=None):
        value = exact(*args, out=out)
        if np.iscomplexobj(value):
            real, imag = np.nextafter(value.real, np.inf), np.nextafter(value.imag, np.inf)
            if isinstance(value, np.generic):  # a scalar, as a one-state readout takes
                return np.complex128(complex(real, imag))
            value.real, value.imag = real, imag
            return value
        return np.nextafter(value, np.inf, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(np, function, one_ulp_up)
        return _changed(outputs)


def _changed(outputs: dict) -> dict:
    """Every case rerun; returns the outputs that differ from ``outputs``."""
    return {name: out for name, out in make.generate().items() if out != outputs[name]}


def test_one_ulp_of_exp_stays_within_the_kicked_tolerance(monkeypatch, outputs):
    moved = _one_ulp_up(monkeypatch, outputs, "exp")
    assert sorted(moved) == sorted(name for name in outputs if name.startswith("kicked"))
    for name, actual in moved.items():
        _compare(outputs[name], actual, exact=False)


def test_one_ulp_of_sin_stays_within_the_classical_horizon(monkeypatch, outputs):
    # the turn table is built once, before the patch, by the unpatched
    # outputs; the next test moves every table entry
    moved = _one_ulp_up(monkeypatch, outputs, "sin")
    assert sorted(moved) == ["classical", "classical-command"]
    for name, actual in moved.items():
        _compare(outputs[name], actual, exact=False, horizon=_horizon(name))
    # past the horizon the classical values have moved beyond the tolerance
    with pytest.raises(AssertionError):
        _compare(outputs["classical"], moved["classical"], exact=False)


def test_one_ulp_of_the_turn_table_stays_within_the_tolerances(monkeypatch, outputs):
    table = measurement._turn_table()
    perturbed = np.empty_like(table)
    perturbed.real = np.nextafter(table.real, np.inf)
    perturbed.imag = np.nextafter(table.imag, np.inf)
    monkeypatch.setattr(measurement, "_turn_table", lambda: perturbed)
    moved = _changed(outputs)
    assert sorted(moved) == [
        "kicked-k50-d", "kicked-random-d", "kicked-rotator-d", "zeno-command",
    ]
    for name, actual in moved.items():
        _compare(outputs[name], actual, exact=False)
