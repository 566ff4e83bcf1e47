"""The public surface: every exported name resolves, every count rejects a
fractional value instead of truncating it, every real-valued parameter
rejects a bool or a string instead of coercing it, and every count and scale
out of its range gets the one message of its rule."""

import importlib
import pkgutil
import re

import numpy as np
import pytest

import denscore
from denscore import coverage, data, density, evaluation, rng, selection
from denscore import (
    BoundParams,
    DensityField,
    LabeledPointSet,
    MaskedReconstructor,
    PointSet,
    ProtocolConfig,
    ValidationError,
    assign_coverage,
    calibrate,
    density_aware_greedy,
    density_from_error,
    filter_candidates,
    hoeffding_term,
    k_center_greedy,
    kernel_density,
    knn_density,
    nonuniform_mixture_spec,
)

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(denscore.__path__))


@pytest.mark.parametrize(
    "module", ["denscore"] + [f"denscore.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_package_exports_each_module_list_once():
    # a public name is declared in its module's __all__ and nowhere else
    assert denscore.__all__ == (
        ["__version__"] + coverage.__all__ + data.__all__ + density.__all__
        + evaluation.__all__ + rng.__all__ + selection.__all__
    )
    assert len(set(denscore.__all__)) == len(denscore.__all__)
    for module in (coverage, data, density, evaluation, rng, selection):
        for name in module.__all__:
            assert getattr(denscore, name) is getattr(module, name), name


POINTS = PointSet.from_features(np.arange(12, dtype=np.float64).reshape(6, 2))
FIELD = DensityField(np.linspace(1.0, 2.0, 6))
COVERAGE = assign_coverage(POINTS, [0, 2, 4])
SCORES = np.linspace(0.0, 1.0, 6)
LABELS = np.ones(6, dtype=np.int64)

# (call, parameter name); each call passes one count as a fraction
FRACTIONAL_COUNTS = {
    "knn_density": (lambda v: knn_density(POINTS, v), "k_neighbors"),
    "MaskedReconstructor": (lambda v: MaskedReconstructor(v), "kernel_size"),
    "k_center_greedy": (lambda v: k_center_greedy(POINTS, None, v), "b"),
    "density_aware_greedy": (
        lambda v: density_aware_greedy(POINTS, FIELD, None, v), "b"),
    "hoeffding_term": (lambda v: hoeffding_term(1.0, 0.5, v), "n"),
    "calibrate": (lambda v: calibrate(FIELD, COVERAGE, num_bins=v), "num_bins"),
    "ProtocolConfig.initial": (
        lambda v: ProtocolConfig(budget=2, algorithm="k-center", initial=(v,)),
        "initial"),
    "ProtocolConfig.budget": (
        lambda v: ProtocolConfig(budget=v, algorithm="random"), "budget"),
    "ProtocolConfig.seed": (
        lambda v: ProtocolConfig(budget=2, algorithm="random", seed=v), "seed"),
    "ProtocolConfig.rounds": (
        lambda v: ProtocolConfig(budget=2, rounds=v, algorithm="random"), "rounds"),
    "BoundParams.num_classes": (lambda v: BoundParams(num_classes=v), "num_classes"),
    "LabeledPointSet.num_classes": (
        lambda v: LabeledPointSet(POINTS, LABELS, num_classes=v), "num_classes"),
    "filter_candidates": (lambda v: filter_candidates(SCORES, 1.0, v), "b"),
    # the mixture needs n >= 20
    "nonuniform_mixture_spec": (
        lambda v: nonuniform_mixture_spec(n=20 + v), "n"),
    "nonuniform_mixture_spec.dim": (
        lambda v: nonuniform_mixture_spec(n=20, dim=v), "dim"),
}


@pytest.mark.parametrize("case", sorted(FRACTIONAL_COUNTS))
def test_fractional_count_names_its_parameter(case):
    call, name = FRACTIONAL_COUNTS[case]
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        call(2.7)
    # a whole float and a numpy integer still name a count
    call(3.0)
    call(np.int64(3))


def test_whole_counts_match_their_int():
    assert np.array_equal(knn_density(POINTS, 3.0).values,
                          knn_density(POINTS, 3).values)
    assert k_center_greedy(POINTS, None, np.int64(2)).picks == (0, 5)
    assert MaskedReconstructor(np.int64(3)).kernel_size == 3


# (call, parameter name); each call passes one real-valued parameter
NON_NUMBERS = {
    "filter_candidates": (lambda v: filter_candidates(SCORES, v, 2), "alpha"),
    "kernel_density": (lambda v: kernel_density(POINTS, v), "bandwidth"),
    "density_from_error": (lambda v: density_from_error(0.5, v), "tau"),
    "knn_density": (lambda v: knn_density(POINTS, 2, v), "tau"),
    "MaskedReconstructor": (
        lambda v: MaskedReconstructor(3, temperature=v), "temperature"),
    "hoeffding_term.loss_bound": (lambda v: hoeffding_term(v, 0.5, 10), "loss_bound"),
    "hoeffding_term.confidence": (lambda v: hoeffding_term(1.0, v, 10), "confidence"),
    "BoundParams.lambda_l": (lambda v: BoundParams(lambda_l=v), "lambda_l"),
    "BoundParams.lambda_eta": (lambda v: BoundParams(lambda_eta=v), "lambda_eta"),
    "BoundParams.loss_bound": (lambda v: BoundParams(loss_bound=v), "loss_bound"),
}


@pytest.mark.parametrize("value", [True, "1"])
@pytest.mark.parametrize("case", sorted(NON_NUMBERS))
def test_non_number_names_its_parameter(case, value):
    call, name = NON_NUMBERS[case]
    # a bare float() would run True and "1" as 1.0, or fail untyped
    with pytest.raises(ValidationError, match=f"{name} must be a number"):
        call(value)
    call(1.0)
    call(np.float64(1.0))


# (call, parameter name, least valid count, or None for a scale); each call
# passes one count or one scale, which `data._count` or `data._positive` checks
OUT_OF_RANGE = {
    "hoeffding_term.n": (lambda v: hoeffding_term(1.0, 0.5, v), "n", 1),
    "BoundParams.num_classes": (lambda v: BoundParams(num_classes=v), "num_classes", 1),
    "LabeledPointSet.num_classes": (
        lambda v: LabeledPointSet(POINTS, LABELS, num_classes=v), "num_classes", 1),
    "calibrate": (lambda v: calibrate(FIELD, COVERAGE, num_bins=v), "num_bins", 1),
    "ProtocolConfig.rounds": (
        lambda v: ProtocolConfig(budget=2, rounds=v, algorithm="random"), "rounds", 1),
    "ProtocolConfig.budget": (
        lambda v: ProtocolConfig(budget=v, algorithm="random"), "budget", 1),
    "nonuniform_mixture_spec.n": (lambda v: nonuniform_mixture_spec(n=v), "n", 20),
    "nonuniform_mixture_spec.dim": (
        lambda v: nonuniform_mixture_spec(n=20, dim=v), "dim", 1),
    "k_center_greedy": (lambda v: k_center_greedy(POINTS, None, v), "b", 0),
    "density_aware_greedy": (
        lambda v: density_aware_greedy(POINTS, FIELD, None, v), "b", 0),
    "hoeffding_term.loss_bound": (
        lambda v: hoeffding_term(v, 0.5, 10), "loss_bound", None),
    "BoundParams.lambda_l": (lambda v: BoundParams(lambda_l=v), "lambda_l", None),
    "BoundParams.lambda_eta": (lambda v: BoundParams(lambda_eta=v), "lambda_eta", None),
    "BoundParams.loss_bound": (lambda v: BoundParams(loss_bound=v), "loss_bound", None),
    "density_from_error": (lambda v: density_from_error(0.5, v), "tau", None),
    "knn_density": (lambda v: knn_density(POINTS, 2, v), "tau", None),
    "MaskedReconstructor": (
        lambda v: MaskedReconstructor(3, temperature=v), "temperature", None),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_value_gets_its_rule_message(case):
    call, name, low = OUT_OF_RANGE[case]
    if low is None:
        values = (0.0, -1.0, np.inf, np.nan)
        message = f"{name} must be a positive finite number"
    else:
        values, message = (low - 1, -1), f"{name} must be >= {low}"
    for value in values:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(value)
