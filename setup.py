import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    """Single source of truth: repro.__version__ (the verdict cache
    keys on it, so packaging metadata must agree)."""
    init = Path(__file__).parent / "src" / "repro" / "__init__.py"
    match = re.search(
        r'^__version__ = "([^"]+)"', init.read_text(encoding="utf8"), re.M
    )
    if not match:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-rehearsal",
    version=read_version(),
    description=(
        "Reproduction of Rehearsal: a configuration verification tool "
        "for Puppet (PLDI 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The benchmark corpus ships as data files next to repro.corpus;
    # without this the manifests silently vanish from wheels/sdists and
    # load_source() fails on every installed copy.
    package_data={"repro.corpus": ["manifests/*.pp"]},
    include_package_data=True,
    # importlib.resources.files() (repro.corpus) needs 3.9+.
    python_requires=">=3.9",
    install_requires=[],
    entry_points={
        "console_scripts": [
            "rehearsal = repro.core.cli:main",
        ],
    },
)
