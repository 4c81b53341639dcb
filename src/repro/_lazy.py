"""Lazy re-exports for package roots (PEP 562).

A package root that re-exports names from its submodules would, if it
imported them eagerly, make every ``import repro.<anything>`` pay for the
whole package: the service would load the comparison engine, the
validation harness and ``scipy.stats`` before it could answer a request.
:func:`lazy_exports` gives a root ``__getattr__`` and ``__dir__`` hooks
that import a name's module on first access instead, so the root keeps
its public names and ``__all__`` while each entry point loads only the
modules it runs.  This module imports nothing from the package.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict, modules: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``.

    ``modules`` maps each module to the names it provides.  A name whose
    module is ``<package>.<name>`` is that submodule itself.  A resolved
    name is stored in ``namespace``, so the hook runs once per name.
    """
    package = namespace["__name__"]
    owners = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module)
        if module != f"{package}.{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__
