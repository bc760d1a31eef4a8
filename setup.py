"""Setuptools entry point and the package metadata.

numpy and networkx are required, but neither loads unless it is used.
numpy backs only the packed query engine (``--engine packed``) and the
discovery-model fits (``repro.analysis.discovery``); the tables, the
experiments, simulations, sweeps and the service run without it.  networkx
backs the ``graph`` replica-set selection strategy (``GET
/v1/selection?strategy=graph``).  scipy is the optional ``fit`` extra
(``pip install .[fit]``): only the Alhazmi-Malaiya logistic fit,
``DiscoveryModelAnalysis.fit_logistic``, imports it.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'OS Diversity for Intrusion Tolerance: Myth or "
        "Reality?' (Garcia et al., DSN 2011)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.20", "networkx>=2.6"],
    extras_require={"fit": ["scipy"]},
)
