"""The public surface: each module's ``__all__`` and the package re-exports."""

import dataclasses
import importlib
import inspect

import pytest

import latticebump

MODULES = ("grid", "bumps", "symbols", "operators", "norms", "transference", "scalinglab")
# names retired because no command, benchmark workload or report read them
RETIRED = ("_multiplier_samples", "apply_linear_mult", "_plateau_band", "check_symbol_budget")
RETIRED_FIELDS = {("transference", "WitnessPair"): ("provenance", "g", "m"),
                  ("transference", "FactorizationCheck"): ("lhs_max", "rhs_max"),
                  ("scalinglab", "ProductScaling"): ("smallest_eps",),
                  ("scalinglab", "ScalingFamily"): ("box_factor",)}


def _module(name):
    return importlib.import_module(f"latticebump.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = _module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_reexports_only_names_from_some_all():
    exported = set().union(*(_module(name).__all__ for name in MODULES))
    public = {n for n, v in vars(latticebump).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    assert sorted(public - exported) == []


def test_retired_names_are_gone():
    for name in MODULES:
        mod = _module(name)
        assert [n for n in RETIRED if n in mod.__all__ or hasattr(mod, n)] == [], name
    assert [n for n in RETIRED if hasattr(latticebump, n)] == []
    assert not hasattr(latticebump.Sequence, "drop_zeros")
    assert not hasattr(latticebump.GridSpec, "freq_index")
    assert "region" not in inspect.signature(latticebump.lp_norm).parameters
    for (mod, cls), gone in RETIRED_FIELDS.items():
        names = {f.name for f in dataclasses.fields(getattr(_module(mod), cls))}
        assert names.isdisjoint(gone), cls
