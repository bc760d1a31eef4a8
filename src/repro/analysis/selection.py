"""Replica-set selection for intrusion-tolerant systems (Section IV-C).

Given shared-vulnerability counts between operating systems, choose a group
of ``n`` OSes for the replicas of a BFT system so that the number of common
vulnerabilities is minimised.  Three strategies are provided:

* **exhaustive** -- exact search over every combination, with
  branch-and-bound pruning on partial group scores (shared counts are
  non-negative, so a partial group's score is a lower bound for every
  completion); exact even on catalogues of hundreds of OSes when the best
  groups are sparse;
* **greedy** -- grows the set one OS at a time, always adding the candidate
  that adds the fewest shared vulnerabilities (scales to larger catalogues);
* **spectral/graph** -- treats the shared counts as edge weights of a graph
  and picks a minimum-weight k-subgraph seeded by the lightest edge, using
  :mod:`networkx` (useful as an independent cross-check of the other two).

All three strategies run on the same pair matrix, which is compiled in one
pass from the dataset's bitset incidence index (:mod:`repro.analysis.engine`)
rather than by re-intersecting entry sets per pair.

The module also provides the BFT sizing helpers (3f+1, 2f+1) used by the
paper when it discusses how many distinct OSes are needed to tolerate ``f``
intrusions.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.dataset import VulnerabilityDataset
from repro.core.constants import OS_NAMES
from repro.core.enums import ServerConfiguration
from repro.core.exceptions import SelectionError

Pair = Tuple[str, str]


def replicas_needed(f: int, quorum_model: str = "3f+1") -> int:
    """Number of replicas required to tolerate ``f`` faults.

    ``quorum_model`` is ``"3f+1"`` for standard BFT state-machine replication
    (PBFT-style) or ``"2f+1"`` for hybrid/trusted-component protocols.
    """
    if f < 0:
        raise SelectionError("f must be non-negative")
    if quorum_model == "3f+1":
        return 3 * f + 1
    if quorum_model == "2f+1":
        return 2 * f + 1
    raise SelectionError(f"unknown quorum model {quorum_model!r}")


def max_tolerated_faults(n_os: int, quorum_model: str = "3f+1") -> int:
    """Largest ``f`` a pool of ``n_os`` distinct OSes can support."""
    if n_os < 1:
        return 0
    if quorum_model == "3f+1":
        return max(0, (n_os - 1) // 3)
    if quorum_model == "2f+1":
        return max(0, (n_os - 1) // 2)
    raise SelectionError(f"unknown quorum model {quorum_model!r}")


@dataclass(frozen=True)
class SelectionResult:
    """A selected replica group and its score."""

    os_names: Tuple[str, ...]
    #: Sum of pairwise shared vulnerabilities inside the group.
    pairwise_shared: int
    #: Number of distinct vulnerabilities affecting at least two members.
    compromising: int
    strategy: str

    def __len__(self) -> int:
        return len(self.os_names)


class ReplicaSetSelector:
    """Selects diverse OS groups from shared-vulnerability data."""

    def __init__(
        self,
        dataset: Optional[VulnerabilityDataset] = None,
        pair_matrix: Optional[Mapping[Pair, int]] = None,
        candidates: Optional[Sequence[str]] = None,
        configuration: ServerConfiguration = ServerConfiguration.ISOLATED_THIN,
    ) -> None:
        if dataset is None and pair_matrix is None:
            raise SelectionError("either a dataset or a pair matrix is required")
        # ``is not None``: an empty dataset is falsy but still a dataset.
        self._dataset = (
            dataset.valid().filtered(configuration) if dataset is not None else None
        )
        if candidates is not None:
            self._candidates: Tuple[str, ...] = tuple(candidates)
        elif pair_matrix is not None:
            names = sorted({name for pair in pair_matrix for name in pair})
            self._candidates = tuple(names)
        else:
            self._candidates = tuple(dataset.os_names or OS_NAMES)
        self._matrix: Dict[Pair, int] = {}
        if pair_matrix is not None:
            for (os_a, os_b), count in pair_matrix.items():
                self._matrix[self._key(os_a, os_b)] = count
        elif self._dataset.engine != "naive":
            # One pass over the engine's index: an AND + popcount per pair.
            for (os_a, os_b), count in self._dataset.query_index().pair_matrix(
                self._candidates
            ).items():
                self._matrix[self._key(os_a, os_b)] = count
        else:
            for os_a, os_b in itertools.combinations(self._candidates, 2):
                self._matrix[self._key(os_a, os_b)] = self._dataset.shared_count(
                    (os_a, os_b)
                )

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _key(os_a: str, os_b: str) -> Pair:
        return tuple(sorted((os_a, os_b)))  # type: ignore[return-value]

    @property
    def candidates(self) -> Tuple[str, ...]:
        return self._candidates

    def shared(self, os_a: str, os_b: str) -> int:
        """Shared-vulnerability count between two candidate OSes."""
        return self._matrix.get(self._key(os_a, os_b), 0)

    def group_score(self, os_names: Sequence[str]) -> int:
        """Sum of pairwise shared vulnerabilities inside a group."""
        return sum(
            self.shared(os_a, os_b)
            for os_a, os_b in itertools.combinations(os_names, 2)
        )

    def group_compromising(self, os_names: Sequence[str]) -> int:
        """Distinct vulnerabilities affecting >= 2 group members (needs a dataset)."""
        if self._dataset is None:
            return self.group_score(os_names)
        return len(self._dataset.compromising(os_names))

    def _result(self, os_names: Sequence[str], strategy: str) -> SelectionResult:
        ordered = tuple(sorted(os_names))
        return SelectionResult(
            os_names=ordered,
            pairwise_shared=self.group_score(ordered),
            compromising=self.group_compromising(ordered),
            strategy=strategy,
        )

    def _check_size(self, n: int) -> None:
        if n < 1:
            raise SelectionError("group size must be at least 1")
        if n > len(self._candidates):
            raise SelectionError(
                f"cannot select {n} distinct OSes from {len(self._candidates)} candidates"
            )

    # -- strategies ---------------------------------------------------------------

    def exhaustive(self, n: int, top: int = 1) -> List[SelectionResult]:
        """Exact search for the ``top`` best ``n``-combinations.

        Shared counts never go negative, so a partial group's score is a
        lower bound on the score of every completion; the search prunes any
        branch whose partial score already exceeds the current ``top``-th
        best (branch-and-bound).  A user-supplied pair matrix with negative
        weights invalidates that bound, in which case every combination is
        enumerated instead.  Either way the result -- scores, members and
        tie-breaking order -- is identical to full enumeration.
        """
        self._check_size(n)
        if top <= 0:
            return []
        if any(weight < 0 for weight in self._matrix.values()):
            return self.rank_all(n)[:top]
        scored = [
            self._result(combo, "exhaustive")
            for combo in self._bounded_search(n, top)
        ]
        scored.sort(key=lambda result: (result.pairwise_shared, result.os_names))
        return scored[:top]

    def _bounded_search(self, n: int, top: int) -> List[Tuple[str, ...]]:
        """The ``top`` best ``n``-combinations, identical to full enumeration.

        Depth-first over the candidates in *sorted* order, so combinations
        complete in exactly the (score-then-names) tie-breaking order's
        name component: among equal scores, earlier completions are
        lexicographically smaller.  A max-heap keyed by (score, completion
        sequence) therefore holds the true ``top`` best at all times, and a
        branch can be pruned as soon as its partial score reaches the heap
        maximum: every completion scores at least the partial (weights are
        non-negative) and, on a score tie, loses by name order to what the
        heap already holds.
        """
        candidates = tuple(sorted(self._candidates))
        shared = self.shared
        # Max-heap via negation; `sequence` stands in for the name tie-break.
        heap: List[Tuple[int, int, Tuple[str, ...]]] = []
        sequence = itertools.count()

        def visit(start: int, chosen: List[str], score: int) -> None:
            if len(chosen) == n:
                item = (-score, -next(sequence), tuple(chosen))
                if len(heap) < top:
                    heapq.heappush(heap, item)
                elif item > heap[0]:
                    # Better than the current worst: (-score, -seq) ordering
                    # makes this exactly the (score, names) comparison, as a
                    # later sequence number means lexicographically greater.
                    heapq.heapreplace(heap, item)
                return
            slots_left = n - len(chosen)
            full = len(heap) == top
            for index in range(start, len(candidates) - slots_left + 1):
                name = candidates[index]
                extended = score + sum(shared(name, other) for other in chosen)
                if full and extended >= -heap[0][0]:
                    continue
                chosen.append(name)
                visit(index + 1, chosen, extended)
                chosen.pop()
                full = len(heap) == top

        visit(0, [], 0)
        return [combo for _neg_score, _neg_seq, combo in heap]

    def greedy(self, n: int, seed_os: Optional[str] = None) -> SelectionResult:
        """Grow a group greedily, adding the cheapest OS at each step."""
        self._check_size(n)
        if seed_os is None:
            # Start from the lightest edge, or the single OS when n == 1.
            if n == 1:
                best = min(self._candidates)
                return self._result((best,), "greedy")
            (os_a, os_b), _ = min(
                self._matrix.items(), key=lambda item: (item[1], item[0])
            )
            chosen = [os_a, os_b]
        else:
            if seed_os not in self._candidates:
                raise SelectionError(f"{seed_os!r} is not a candidate OS")
            chosen = [seed_os]
        while len(chosen) < n:
            remaining = [name for name in self._candidates if name not in chosen]
            best_name = min(
                remaining,
                key=lambda name: (sum(self.shared(name, other) for other in chosen), name),
            )
            chosen.append(best_name)
        return self._result(chosen[:n], "greedy")

    def graph_based(self, n: int) -> SelectionResult:
        """Minimum-weight group selection on the shared-vulnerability graph.

        Builds the complete weighted graph of candidates, seeds the group with
        the endpoints of the globally lightest edge, then repeatedly adds the
        node with the lightest total attachment to the current group --
        essentially a Prim-style heuristic -- and finally local-search swaps
        single members while that improves the score.
        """
        import networkx as nx  # only this strategy uses it

        self._check_size(n)
        graph = nx.Graph()
        graph.add_nodes_from(self._candidates)
        for (os_a, os_b), weight in self._matrix.items():
            graph.add_edge(os_a, os_b, weight=weight)
        if n == 1:
            return self._result((min(self._candidates),), "graph")
        seed_edge = min(
            graph.edges(data="weight", default=0),
            key=lambda edge: (edge[2], edge[0], edge[1]),
        )
        chosen = [seed_edge[0], seed_edge[1]]
        while len(chosen) < n:
            remaining = [name for name in self._candidates if name not in chosen]
            best_name = min(
                remaining,
                key=lambda name: (
                    sum(graph[name][other]["weight"] if graph.has_edge(name, other) else 0
                        for other in chosen),
                    name,
                ),
            )
            chosen.append(best_name)
        # Local search: try swapping each member for each outsider.
        improved = True
        while improved:
            improved = False
            current_score = self.group_score(chosen)
            for inside, outside in itertools.product(
                list(chosen), [c for c in self._candidates if c not in chosen]
            ):
                candidate = [outside if name == inside else name for name in chosen]
                if self.group_score(candidate) < current_score:
                    chosen = candidate
                    improved = True
                    break
        return self._result(chosen[:n], "graph")

    # -- paper scenarios ---------------------------------------------------------------

    def best_for_faults(
        self, f: int, quorum_model: str = "3f+1", strategy: str = "exhaustive"
    ) -> SelectionResult:
        """Best group sized for tolerating ``f`` faults under a quorum model."""
        n = replicas_needed(f, quorum_model)
        if strategy == "exhaustive":
            return self.exhaustive(n, top=1)[0]
        if strategy == "greedy":
            return self.greedy(n)
        if strategy == "graph":
            return self.graph_based(n)
        raise SelectionError(f"unknown selection strategy {strategy!r}")

    def rank_all(self, n: int) -> List[SelectionResult]:
        """All ``n``-combinations ranked from most to least diverse."""
        self._check_size(n)
        scored = [
            self._result(combo, "exhaustive")
            for combo in itertools.combinations(self._candidates, n)
        ]
        scored.sort(key=lambda result: (result.pairwise_shared, result.os_names))
        return scored
