"""Public API surface and documentation guarantees.

Two contracts a downstream user relies on:

* everything exported via ``__all__`` actually imports, and the README's
  headline entry points exist;
* every public module, class, and function in ``repro`` carries a
  docstring (deliverable-grade documentation, enforced).
"""

import importlib
import inspect
import pkgutil

import repro

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.sgx",
    "repro.cryptoprim",
    "repro.mht",
    "repro.lsm",
    "repro.core",
    "repro.baselines",
    "repro.ycsb",
    "repro.transparency",
    "repro.bench",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            if info.name.startswith("_"):
                continue
            yield importlib.import_module(f"{package_name}.{info.name}")


def test_all_exports_resolve():
    for module in iter_modules():
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"


def test_readme_entry_points_exist():
    from repro import (  # noqa: F401
        DEFAULT_COSTS,
        AuthenticationError,
        CostModel,
        ELSMP1Store,
        ELSMP2Store,
        FreshnessViolation,
        ScaleConfig,
    )
    from repro.core import AttestedClient, RemoteQueryServer  # noqa: F401
    from repro.core.adversary import StaleRevealProver  # noqa: F401
    from repro.lsm import BackgroundCompactor, LSMStore  # noqa: F401
    from repro.ycsb import WORKLOAD_A, CoreWorkload, run_phase  # noqa: F401
    from repro.transparency import CTLogServer, DomainMonitor  # noqa: F401

    assert repro.__version__


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def test_every_public_item_is_documented():
    undocumented: list[str] = []
    for module in iter_modules():
        if not module.__doc__:
            undocumented.append(module.__name__)
        for name, obj in vars(module).items():
            if not _is_public(name):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exports are documented at their home
            if inspect.isclass(obj):
                if not obj.__doc__:
                    undocumented.append(f"{module.__name__}.{name}")
                for member_name, member in vars(obj).items():
                    if (
                        _is_public(member_name)
                        and inspect.isfunction(member)
                        and not member.__doc__
                    ):
                        undocumented.append(
                            f"{module.__name__}.{name}.{member_name}"
                        )
            elif inspect.isfunction(obj) and not obj.__doc__:
                undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, "undocumented public items:\n" + "\n".join(
        sorted(undocumented)
    )
