import importlib
import pkgutil

import gln_modp


def _lru_caches():
    """Every lru_cache-wrapped function at module or class level in the
    package, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(gln_modp.__path__):
        module = importlib.import_module(f"gln_modp.{info.name}")
        holders = [module] + [v for v in vars(module).values()
                              if isinstance(v, type) and v.__module__ == module.__name__]
        for holder in holders:
            for value in vars(holder).values():
                value = getattr(value, "__func__", value)
                if callable(getattr(value, "cache_parameters", None)):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def test_every_cache_is_bounded():
    caches = _lru_caches()
    for name in ("gln_modp.hecke0._left_word", "gln_modp.cli._parser",
                 "gln_modp.classify.boolean_lower_sets",
                 "gln_modp.finite_field.default_modulus",
                 "gln_modp.finite_field._smallest_factor",
                 "gln_modp.oracle.gl_elements",
                 "gln_modp.oracle.iwasawa_orbit_counts",
                 "gln_modp.oracle._signed_permutations"):
        assert name in caches
    unbounded = [name for name, f in caches.items()
                 if f.cache_parameters()["maxsize"] is None]
    assert unbounded == []
