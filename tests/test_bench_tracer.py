"""The benchmark tracer's sites must name attributes the library still has."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(site):
    """(owner, attribute name) of a site, looked up as Tracer.install does."""
    mod_name, _, attr = site.partition(".")
    owner = importlib.import_module(f"infostab.{mod_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def test_every_site_resolves():
    tracer = load_tracer()
    originals = {}
    for site in tracer.SITES:
        owner, attr = resolve(site)
        assert vars(owner).get(attr) is not None, site
        originals[site] = vars(owner)[attr]
    t = tracer.Tracer()
    try:
        t.install(tracer.SITES)
        for site in tracer.SITES:
            owner, attr = resolve(site)
            assert vars(owner)[attr] is not originals[site], site
    finally:
        t.uninstall()
    for site in tracer.SITES:
        owner, attr = resolve(site)
        assert vars(owner)[attr] is originals[site], site
