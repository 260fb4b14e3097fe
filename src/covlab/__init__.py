"""covlab: exact computational workbench for finite-group 2-cohomology,
group extensions, functorial covariance, field multiplets, covering groups
and symbolic Wick-power scaling.

`import covlab` loads no submodule: each one in `__all__` is imported on
its first access as an attribute (PEP 562), so a CLI verb loads only the
layers it runs."""

__version__ = "0.1.0"

__all__ = [
    "__version__", "cohomology2", "config", "covariance", "covering",
    "exactlin", "extension", "fincat", "fingroup", "models", "multiplet",
    "schemas", "wickscale",
]


def __getattr__(name):
    if name in __all__:
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
