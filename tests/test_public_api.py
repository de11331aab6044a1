"""Public-API integrity: every name each package exports must resolve,
and the headline entry points must be importable from the top level."""

import importlib
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.costmodel",
    "repro.lint",
    "repro.substrate",
    "repro.serve",
    "repro.models",
    "repro.experiments",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} must declare __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} listed in __all__ but missing"


def test_top_level_surface():
    import repro

    for name in (
        "schedule_graph",
        "make_profile",
        "OpGraph",
        "Operator",
        "Schedule",
        "Stage",
        "CostProfile",
        "evaluate_schedule",
        "ALGORITHMS",
    ):
        assert name in repro.__all__


def test_version():
    import repro

    assert repro.__version__.count(".") == 2


def test_model_registry_and_sizes():
    from repro.experiments import ExperimentConfig
    from repro.experiments.realmodels import MODEL_BUILDERS, model_sizes

    cfg = ExperimentConfig()
    assert set(MODEL_BUILDERS) == {"inception_v3", "nasnet", "resnet50", "randwire"}
    for name in MODEL_BUILDERS:
        sizes = model_sizes(name, cfg)
        assert len(sizes) >= 3
    with pytest.raises(ValueError):
        model_sizes("alexnet", cfg)


def test_measured_unit_on_contrast_workloads():
    from repro.sweep import RealModelSpec, WorkUnit
    from repro.sweep.units import execute_unit

    unit = WorkUnit(
        "contrast", 224, 0, "hios-lp", RealModelSpec("resnet50", 224),
        (("window", 3),), kind="measured",
    )
    payload, _meta = execute_unit(unit)
    assert payload["measured_ms"] > 0
    assert payload["predicted_ms"] > 0


def test_core_imports_no_numpy():
    """The schedulers run on plain lists: importing ``repro.core`` in a
    fresh interpreter loads no numpy."""
    code = "import sys, repro.core; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
