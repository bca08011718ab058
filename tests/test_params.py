import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dressedcavity as dc
from dressedcavity.errors import ValidationError


def test_baseline_derived_scalars():
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=100)
    assert p.delta_omega == pytest.approx(5.0, rel=1e-15)
    assert p.radius == pytest.approx(0.62831853071795865, rel=1e-15)
    assert p.eta == pytest.approx(1.7841241161527711, rel=1e-15)
    assert p.n_modes == 100


def test_the_coupling_regime_is_no_parameter():
    # freespace alone compares g with omega_bar; params carries no regime
    p = dc.make_params(1.0, 0.5, delta=0.1)
    assert [f.name for f in fields(p)] == [
        "omega_bar", "g", "radius", "n_modes", "delta", "delta_omega", "eta"
    ]
    for name in ("REGIME_WEAK", "REGIME_STRONG"):
        assert not hasattr(dc, name) and name not in dc.__all__


@pytest.mark.parametrize("name", ["omega_bar", "g"])
def test_nonpositive_inputs_name_the_field(name):
    kwargs = dict(omega_bar=1.0, g=0.5)
    kwargs[name] = -1.0
    with pytest.raises(ValidationError, match=name):
        dc.make_params(kwargs["omega_bar"], kwargs["g"], delta=0.1)


def test_nonpositive_delta_rejected():
    with pytest.raises(ValidationError, match="delta"):
        dc.make_params(1.0, 0.5, delta=0.0)


@pytest.mark.parametrize(
    "omega_bar, g, delta, scalar, got, inputs",
    [
        (1e155, 0.5, 0.1, "omega_bar^2", "inf", "omega_bar = 1e+155"),
        (1e-170, 0.5, 0.1, "omega_bar^2", "0.0", "omega_bar = 1e-170"),
        (1.0, 1e155, 0.1, "g^2", "inf", "g = 1e+155"),
        (1.0, 1e-170, 0.1, "g^2", "0.0", "g = 1e-170"),
        (1.0, 0.5, 1e-320, "delta_omega", "inf", "g = 0.5, delta = 1e-320"),
        (1.0, 1e-150, 1e300, "delta_omega", "0.0", "g = 1e-150, delta = 1e+300"),
        (1.0, 1e-150, 1e160, "radius", "inf", "g = 1e-150, delta = 1e+160"),
        (1.0, 1e150, 1e-10, "eta^2", "inf", "g = 1e+150, delta = 1e-10"),
        (1.0, 1e-150, 1e30, "eta^2", "0.0", "g = 1e-150, delta = 1e+30"),
    ],
)
def test_derived_scalars_out_of_the_float_range_name_the_scalar(
    omega_bar, g, delta, scalar, got, inputs
):
    # finite positive inputs whose square, spacing, radius or coupling
    # overflows or underflows: a float ** 2 would raise OverflowError, and
    # a zero spacing would divide by zero in the radius
    message = f"{scalar} must be finite and strictly positive, got {got} from {inputs}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        dc.make_params(omega_bar, g, delta=delta)


def test_the_cavity_is_delta_alone():
    # delta = g R/(pi c) is the only cavity input: no radius, no wave speed
    with pytest.raises(TypeError, match="delta"):
        dc.make_params(1.0, 0.5)
    with pytest.raises(TypeError, match="radius"):
        dc.make_params(1.0, 0.5, radius=1.0)
    with pytest.raises(TypeError, match="'c'"):
        dc.make_params(1.0, 0.5, c=2.0, delta=0.1)
    with pytest.raises(TypeError):
        dc.make_params(1.0, 0.5, 2.0, delta=0.1)
    assert not hasattr(dc.make_params(1.0, 0.5, delta=0.1), "c")


def test_bad_n_modes_rejected():
    with pytest.raises(ValidationError, match="n_modes"):
        dc.make_params(1.0, 0.5, delta=0.1, n_modes=0)


def test_n_modes_takes_any_integral_type_but_bool():
    for n in (300, np.int64(300), np.int32(300), np.uint16(300)):
        p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=n)
        assert type(p.n_modes) is int and p.n_modes == 300
    for bad in (True, False, np.bool_(True), 300.0, np.float64(3.0), "300", None):
        with pytest.raises(ValidationError, match="n_modes"):
            dc.make_params(1.0, 0.5, delta=0.1, n_modes=bad)


def test_params_immutable():
    p = dc.make_params(1.0, 0.5, delta=0.1)
    with pytest.raises(Exception):
        p.g = 2.0


positive = st.floats(min_value=1e-3, max_value=1e3)


@given(omega_bar=positive, g=positive, delta=positive)
def test_eta_coupling_identity(omega_bar, g, delta):
    p = dc.make_params(omega_bar, g, delta=delta)
    assert p.eta**2 / p.delta_omega == pytest.approx(4.0 * g / math.pi, rel=1e-12)
    assert p.delta * p.delta_omega == pytest.approx(g, rel=1e-14)


def test_field_frequencies():
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=4)
    assert list(p.field_frequencies()) == pytest.approx([5.0, 10.0, 15.0, 20.0])
