"""Shared fixtures for the test suite.

The synthetic corpus takes a fraction of a second to build but is used by
dozens of tests, so it is built once per session.  ``make_entry`` is a small
factory for hand-crafted vulnerability entries used by the unit tests that
need precise control over the data; ``revisiting_ledger`` builds the
smallest ledger whose parent lookup needs more than the parent digest.
"""

from __future__ import annotations

import datetime as dt
from typing import Iterable, Mapping, Optional, Tuple

import pytest

from repro.core.enums import AccessVector, ComponentClass, ValidityStatus
from repro.core.models import CVSSVector, VulnerabilityEntry
from repro.analysis.dataset import VulnerabilityDataset
from repro.db.database import VulnerabilityDatabase
from repro.snapshots.store import SnapshotStore
from repro.synthetic.corpus import SyntheticCorpus, build_corpus


def make_entry(
    cve_id: str = "CVE-2005-0001",
    oses: Iterable[str] = ("Debian",),
    component_class: Optional[ComponentClass] = ComponentClass.KERNEL,
    access: AccessVector = AccessVector.NETWORK,
    year: int = 2005,
    month: int = 6,
    day: int = 15,
    summary: str = "A flaw in the kernel allows remote attackers to crash the system.",
    validity: ValidityStatus = ValidityStatus.VALID,
    versions: Optional[Mapping[str, Tuple[str, ...]]] = None,
) -> VulnerabilityEntry:
    """Build a vulnerability entry with sensible defaults for tests."""
    return VulnerabilityEntry(
        cve_id=cve_id,
        published=dt.date(year, month, day),
        summary=summary,
        cvss=CVSSVector(access_vector=access),
        affected_os=frozenset(oses),
        affected_versions=dict(versions or {}),
        component_class=component_class,
        validity=validity,
    )


def revisiting_ledger(path=":memory:"):
    """A ledger that revisits a state, A -> B -> A: ``(database, records)``.

    Snapshots #1 and #3 carry one digest, so #2's parent (#1) is not the
    newest snapshot with #2's ``parent_digest``.  The caller closes the
    database.
    """
    database = VulnerabilityDatabase(path)
    database.register_os_catalog()
    store = SnapshotStore(database)
    records = []
    for summary in ("The original flaw.", "A revised flaw.", "The original flaw."):
        database.upsert_entry(make_entry("CVE-2005-0001", summary=summary))
        records.append(store.commit())
    assert records[0].digest == records[2].digest != records[1].digest
    return database, records


@pytest.fixture(scope="session")
def corpus() -> SyntheticCorpus:
    """The default calibrated synthetic corpus (shared across the session)."""
    return build_corpus()


@pytest.fixture(scope="session")
def dataset(corpus: SyntheticCorpus) -> VulnerabilityDataset:
    """Dataset over the full corpus (valid + excluded entries)."""
    return VulnerabilityDataset(corpus.entries)


@pytest.fixture(scope="session")
def valid_dataset(dataset: VulnerabilityDataset) -> VulnerabilityDataset:
    """Dataset restricted to valid entries."""
    return dataset.valid()


@pytest.fixture()
def entry_factory():
    """Expose the entry factory as a fixture for convenience."""
    return make_entry


@pytest.fixture()
def golden(request):
    """Compare text against a committed golden file under ``tests/golden/``.

    Usage: ``golden("simulate.json", actual_text)``.  With ``pytest
    --update-golden`` (see the repository-root conftest) the golden file is
    rewritten from ``actual_text`` instead of compared, which is how the
    committed outputs are refreshed after an intentional CLI change.
    """
    from pathlib import Path as _Path

    update = request.config.getoption("--update-golden")
    golden_dir = _Path(__file__).resolve().parent / "golden"

    def check(name: str, actual: str) -> None:
        path = golden_dir / name
        if update:
            golden_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(actual, encoding="utf-8")
            return
        assert path.exists(), (
            f"golden file tests/golden/{name} is missing; "
            "run `pytest --update-golden` to create it"
        )
        expected = path.read_text(encoding="utf-8")
        assert actual == expected, (
            f"output differs from tests/golden/{name}; if the change is "
            "intentional, refresh with `pytest --update-golden`"
        )

    return check
