"""Dataclasses describing vulnerabilities, platforms and operating systems.

These types are deliberately plain containers: parsing lives in
:mod:`repro.nvd`, persistence in :mod:`repro.db` and analysis in
:mod:`repro.analysis`.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field, fields, replace
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.core.enums import (
    AccessVector,
    ComponentClass,
    CPEPart,
    OSFamily,
    ValidityStatus,
)
from repro.core.versions import Version


@dataclass(frozen=True)
class CPEName:
    """A parsed Common Platform Enumeration (CPE 2.2) name.

    Only the fields the study uses are modelled: ``part`` (hardware /
    operating system / application), ``vendor``, ``product`` and ``version``.
    """

    part: CPEPart
    vendor: str
    product: str
    version: str = ""
    update: str = ""
    edition: str = ""
    language: str = ""

    @property
    def is_operating_system(self) -> bool:
        """True when the CPE denotes an operating-system platform (``/o``)."""
        return self.part is CPEPart.OPERATING_SYSTEM

    @property
    def version_obj(self) -> Version:
        return Version(self.version)

    def key(self) -> Tuple[str, str]:
        """The (product, vendor) pair used for product normalisation."""
        return (self.product, self.vendor)


@dataclass(frozen=True)
class CVSSVector:
    """A CVSS v2 base vector together with its (computed) base score."""

    access_vector: AccessVector
    access_complexity: str = "LOW"
    authentication: str = "NONE"
    confidentiality_impact: str = "PARTIAL"
    integrity_impact: str = "PARTIAL"
    availability_impact: str = "PARTIAL"
    base_score: Optional[float] = None

    @property
    def is_remote(self) -> bool:
        return self.access_vector.is_remote


@dataclass(frozen=True)
class OSRelease:
    """A named release of an operating-system distribution.

    ``version`` is the release label (e.g. ``"4.0"`` for Debian etch) and
    ``year`` the year of first availability, used by the temporal analysis and
    by the release-level diversity study.
    """

    os_name: str
    version: str
    year: int
    label: str = ""

    @property
    def version_obj(self) -> Version:
        return Version(self.version)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.os_name} {self.version}"


@dataclass(frozen=True)
class OperatingSystem:
    """One of the 11 OS distributions studied by the paper."""

    name: str
    family: OSFamily
    vendor: str
    #: (product, vendor) aliases under which the OS appears in NVD CPEs.
    cpe_aliases: Tuple[Tuple[str, str], ...] = ()
    #: Year of the first release covered by the study.
    first_release_year: int = 1993
    releases: Tuple[OSRelease, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def release(self, version: str) -> OSRelease:
        """Return the catalogued release with the given version label.

        Raises :class:`KeyError` when the release is not catalogued.
        """
        for rel in self.releases:
            if rel.version == version:
                return rel
        raise KeyError(f"{self.name} has no catalogued release {version!r}")

    def matches_cpe(self, cpe: CPEName) -> bool:
        """Whether an OS-part CPE name refers to this distribution."""
        if not cpe.is_operating_system:
            return False
        return (cpe.product, cpe.vendor) in self.cpe_aliases


@dataclass(frozen=True)
class VulnerabilityEntry:
    """A single NVD entry (one CVE identifier) restricted to the study fields.

    The paper keeps, for each entry: the CVE name, publication date, summary,
    exploit type (local or remote, via the CVSS access vector) and the list of
    affected OS configurations.  We additionally carry the component class and
    validity status assigned during the (re-implemented) manual analysis.
    """

    cve_id: str
    published: _dt.date
    summary: str
    cvss: CVSSVector
    #: Names of affected OS distributions (normalised to the 11-OS catalogue).
    affected_os: FrozenSet[str]
    #: Affected versions per OS name; empty tuple means "all versions".
    affected_versions: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    component_class: Optional[ComponentClass] = None
    validity: ValidityStatus = ValidityStatus.VALID
    #: Raw CPE names as they appeared in the feed (before normalisation).
    raw_cpes: Tuple[CPEName, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.affected_os, frozenset):
            object.__setattr__(self, "affected_os", frozenset(self.affected_os))
        # Canonicalise the version mapping: values become tuples and OSes
        # with no recorded versions ("all versions") are dropped, since
        # ``affected_versions.get(name, ())`` reads both spellings the same.
        # Entries built directly, loaded from the database or reconstructed
        # from a snapshot payload therefore compare (and digest) equal.
        canonical = {
            name: tuple(versions)
            for name, versions in self.affected_versions.items()
            if tuple(versions)
        }
        object.__setattr__(self, "affected_versions", canonical)

    # Pickles carry the fields only: per-object memos cached on the entry
    # (its digest, see repro.snapshots.digests) stay behind, so memoising
    # never changes the bytes shipped to pool workers.
    def __getstate__(self) -> Dict[str, object]:
        return {item.name: getattr(self, item.name) for item in fields(self)}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    # -- convenience -------------------------------------------------------

    @property
    def year(self) -> int:
        """Publication year of the entry."""
        return self.published.year

    @property
    def is_valid(self) -> bool:
        return self.validity.is_valid

    @property
    def is_remote(self) -> bool:
        return self.cvss.is_remote

    @property
    def is_application(self) -> bool:
        return self.component_class is ComponentClass.APPLICATION

    def affects(self, os_name: str) -> bool:
        return os_name in self.affected_os

    def affects_all(self, os_names: Sequence[str]) -> bool:
        """Whether the entry affects *every* OS in ``os_names``."""
        return all(name in self.affected_os for name in os_names)

    def affects_any(self, os_names: Sequence[str]) -> bool:
        return any(name in self.affected_os for name in os_names)

    def affects_release(self, os_name: str, version: str) -> bool:
        """Whether the entry affects the given (OS, release) pair.

        An entry with no recorded versions for the OS is treated as affecting
        all of its releases, matching the paper's aggregated (pessimistic)
        analysis; an entry with explicit versions affects only those.
        """
        if os_name not in self.affected_os:
            return False
        versions = tuple(self.affected_versions.get(os_name, ()))
        if not versions:
            return True
        target = Version(version)
        return any(Version(v).matches(target) or Version(v) == target for v in versions)

    def with_class(self, component_class: ComponentClass) -> "VulnerabilityEntry":
        """Return a copy with the component class set."""
        return replace(self, component_class=component_class)

    def with_validity(self, validity: ValidityStatus) -> "VulnerabilityEntry":
        """Return a copy with the validity status set."""
        return replace(self, validity=validity)
