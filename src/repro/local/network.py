"""The synchronous LOCAL network simulator.

A :class:`Network` owns the communication graph and executes
:class:`~repro.local.algorithm.DistributedAlgorithm` instances round by
round.  The engine is event driven: only nodes that received a message or
whose alarm is due are scheduled, and rounds in which nothing happens are
fast-forwarded while still being counted — so a color-class sweep over
``O(Delta^2)`` classes is cheap to simulate but reports its true LOCAL
round cost.

An algorithm whose class sets ``wake_on_messages = False`` is never
scheduled by a message: deliveries only fill its inboxes, and its nodes
run at their alarm rounds.  The color-class sweeps use this, since a
node there acts only in its own class round.

A network holds one copy of its topology, the frozen adjacency (a LOCAL
node knows only its neighbor list), and caches only ``max_degree`` and
``edge_count``.  Neighbor sets and edge lists are built per call.  Sends
are validated against the sender's adjacency row.

The execution hot path is written for throughput: per-node inbox buffers
are preallocated once per run, the per-round schedule is a plain int list
deduplicated in place, broadcasts expand lazily against the (immutable)
adjacency so each one costs a single outbox record, and bandwidth
accounting compiles down to a single branch on a local flag when it is
off.  This loop is the only message-delivery loop in the package: fault
injection (:class:`~repro.local.faults.FaultPlan`) hooks into it rather
than running a copy of it.  The pre-overhaul seed engine is kept under
``tests/`` as the parity oracle (see ``tests/test_engine_parity.py``).
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Sequence

from repro.errors import RoundLimitExceeded, SimulationError
from repro.local.algorithm import BROADCAST, Api, DistributedAlgorithm
from repro.local.node import Node
from repro.local.result import RunResult
from repro.obs import _runtime as _obs

#: Default safety cap on simulated rounds.
DEFAULT_MAX_ROUNDS = 2_000_000

def message_words(payload) -> int:
    """Size of a message in machine words (CONGEST accounting).

    One *word* models the CONGEST unit of ``O(log n)`` bits, so every
    bounded scalar an algorithm sends counts as one word:

    * ``None``, ``bool``, ``int``, ``float`` — identifiers, colors, round
      numbers, probabilities: all ``O(log n)``-bit quantities, 1 word.
    * ``str`` / ``bytes`` — 8 bytes (one 64-bit word) per word, rounded
      up, with a 1-word minimum; short protocol tags therefore cost the
      same as an int and do not let text smuggle free bandwidth.
    * ``tuple`` / ``list`` / ``set`` / ``frozenset`` — the sum of their
      items; ``dict`` — the sum over keys and values.  The ``O(1)``
      framing overhead of a container is deliberately ignored, matching
      how CONGEST analyses count field widths, not encodings.

    Any other payload type raises :class:`SimulationError`: a rich object
    has no defined wire width, and silently counting it as one word would
    let it bypass ``bandwidth_limit`` checks and corrupt the CONGEST
    accounting reported by :meth:`Network.run`.
    """
    if payload is None or isinstance(payload, (int, float)):
        return 1
    if isinstance(payload, (str, bytes)):
        return max(1, (len(payload) + 7) // 8)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(message_words(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            message_words(k) + message_words(v) for k, v in payload.items()
        )
    raise SimulationError(
        f"cannot size a payload of type {type(payload).__name__!r} for "
        "CONGEST accounting; send scalars, strings, or containers thereof"
    )


def _adjacency_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Adjacency rows in edge order, keeping an edge's first occurrence.

    Every entry for vertex ``v`` is one shared ``int`` object, so rows
    built from parsed or unpickled edges (one object per occurrence)
    hold one int per vertex, not one per edge endpoint.
    """
    vertex = list(range(n))
    adjacency: list[list[int]] = [[] for _ in range(n)]
    seen: set[int] = set()
    for u, v in edges:
        if u == v:
            raise SimulationError(f"self loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise SimulationError(f"edge ({u}, {v}) out of range for {n} vertices")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            continue
        seen.add(key)
        adjacency[u].append(vertex[v])
        adjacency[v].append(vertex[u])
    return adjacency


class Network:
    """An n-node communication network with synchronous rounds.

    Parameters
    ----------
    adjacency:
        ``adjacency[v]`` lists the neighbors of vertex ``v``.  The graph
        must be simple and undirected (``u in adjacency[v]`` iff
        ``v in adjacency[u]``); this is validated on construction unless
        ``validate_structure`` is False.  Adjacency is immutable after
        construction — it is frozen to a tuple of tuples, so mutation
        attempts raise ``TypeError`` — which lets the network cache
        ``max_degree`` and ``edge_count`` without staleness hazards.  It
        is the network's only copy of the topology.
    uids:
        Unique identifiers, one per vertex.  Defaults to the identity.
        Algorithms must break symmetry through these, never through the
        vertex indices, so shuffling ``uids`` exercises ID independence.
    validate_structure:
        When True (default) the adjacency structure is checked on
        construction.  Derived networks (induced subnetworks, virtual
        graphs, graph powers) whose adjacency is symmetric by
        construction pass False to skip the redundant ``O(m)`` re-check.
    validate_sends:
        When True (default) every ``send`` is verified to target a
        neighbor (a scan of the sender's adjacency row).  This is a
        *model* guarantee, independent of how the
        network was built — derived networks keep it on, so algorithms
        running on induced or virtual graphs cannot silently cheat the
        LOCAL model.
    """

    def __init__(
        self,
        adjacency: Sequence[Sequence[int]],
        uids: Sequence[int] | None = None,
        *,
        name: str = "network",
        validate_structure: bool = True,
        validate_sends: bool = True,
    ):
        self.name = name
        # Frozen to a tuple of tuples: the lazy caches below assume
        # post-construction immutability.  A mutation attempt raises
        # instead of silently serving a stale degree or edge count.
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(nbrs) for nbrs in adjacency
        )
        self.n = len(self.adjacency)
        if uids is None:
            uids = list(range(self.n))
        if len(uids) != self.n:
            raise SimulationError("uids length must equal the number of vertices")
        if len(set(uids)) != self.n:
            raise SimulationError("uids must be unique")
        self.uids = list(uids)
        self._validate_sends = validate_sends
        if validate_structure:
            self._check_adjacency()
        # Scalar caches over the immutable adjacency, built lazily.
        self._max_degree: int | None = None
        self._edge_count: int | None = None
        self.nodes = [
            Node(index, self.uids[index], self.adjacency[index])
            for index in range(self.n)
        ]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], uids: Sequence[int] | None = None,
        *, name: str = "network",
    ) -> "Network":
        """Build a network from an edge list on vertices ``0..n-1``."""
        return cls(_adjacency_from_edges(n, edges), uids, name=name)

    @classmethod
    def from_networkx(cls, graph, *, name: str = "network") -> "Network":
        """Build a network from a networkx graph with hashable nodes.

        Nodes are relabeled to ``0..n-1`` in sorted order; the original
        labels become the uids when they are integers, otherwise the
        identity uids are used and the mapping is discarded.
        """
        ordered = sorted(graph.nodes())
        position = {label: index for index, label in enumerate(ordered)}
        edges = [(position[u], position[v]) for u, v in graph.edges()]
        uids = ordered if all(isinstance(label, int) for label in ordered) else None
        return cls.from_edges(len(ordered), edges, uids, name=name)

    def _check_adjacency(self) -> None:
        for v, neighbors in enumerate(self.adjacency):
            if len(set(neighbors)) != len(neighbors):
                raise SimulationError(f"duplicate neighbor entries at vertex {v}")
            for u in neighbors:
                if u == v:
                    raise SimulationError(f"self loop at vertex {v}")
                if not 0 <= u < self.n:
                    raise SimulationError(f"neighbor {u} of vertex {v} out of range")
                if v not in self.adjacency[u]:
                    raise SimulationError(
                        f"asymmetric adjacency: {u} in N({v}) but not vice versa"
                    )

    # ------------------------------------------------------------------
    # Graph accessors
    # ------------------------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        """Delta, the maximum degree of the network (cached)."""
        if self._max_degree is None:
            self._max_degree = max(
                (len(nbrs) for nbrs in self.adjacency), default=0
            )
        return self._max_degree

    @property
    def edge_count(self) -> int:
        if self._edge_count is None:
            self._edge_count = sum(len(nbrs) for nbrs in self.adjacency) // 2
        return self._edge_count

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` with ``u < v`` (a fresh list per call)."""
        return [
            (v, u)
            for v, nbrs in enumerate(self.adjacency)
            for u in nbrs
            if v < u
        ]

    def neighbor_set(self, v: int) -> frozenset[int]:
        """``N(v)`` as a fresh frozenset; hoist it out of inner loops."""
        return frozenset(self.adjacency[v])

    def subnetwork(
        self, vertices: Iterable[int], *, name: str | None = None
    ) -> tuple["Network", list[int]]:
        """Induced subnetwork; returns it plus the original-vertex list.

        Node ``i`` of the subnetwork corresponds to ``mapping[i]`` here and
        inherits its uid, so symmetry breaking remains consistent.  The
        induced adjacency is symmetric by construction, so the structural
        re-check is skipped — but send validation stays on: the hard-clique
        machinery runs most of its subroutines on induced and virtual
        graphs, and those runs must obey the LOCAL model too.
        """
        mapping = sorted(set(vertices))
        # Membership via a position array: two list indexings per
        # neighbor beat dict hashing on the induced-adjacency hot path.
        position = [-1] * self.n
        for i, v in enumerate(mapping):
            position[v] = i
        adjacency = [
            [position[u] for u in self.adjacency[v] if position[u] >= 0]
            for v in mapping
        ]
        sub = Network(
            adjacency,
            [self.uids[v] for v in mapping],
            name=name or f"{self.name}[induced]",
            validate_structure=False,
            validate_sends=self._validate_sends,
        )
        return sub, mapping

    # ------------------------------------------------------------------
    # Execution engine
    # ------------------------------------------------------------------

    def run(
        self,
        algorithm: DistributedAlgorithm,
        *,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        measure_bandwidth: bool = False,
        bandwidth_limit: int | None = None,
        tracer=None,
        faults=None,
    ) -> RunResult:
        """Execute an algorithm to quiescence and return its result.

        The run terminates when no messages are in flight and no alarms
        are pending (halted or not, a silent node stays silent forever in
        a deterministic synchronous system).  The round count includes
        fast-forwarded quiet rounds up to the last activity.  For an
        algorithm with ``wake_on_messages = False`` (read once per run)
        only alarms schedule nodes, so the run ends with its last alarm.

        With ``measure_bandwidth`` the per-message size in words is
        tracked (see :func:`message_words`), which tells whether the
        algorithm would also run in CONGEST; ``bandwidth_limit`` turns
        the simulator into a CONGEST(limit-words) model — any larger
        message raises :class:`SimulationError`.

        ``faults`` injects a seeded :class:`~repro.local.faults.FaultPlan`
        (message loss, crash-stop nodes, round budget; semantics in
        :mod:`repro.local.faults`).  A non-noop plan hooks into this loop
        rather than replacing it: its crash schedule gates
        initialization, alarms and delivery, its seeded drop stream is
        rolled once per copy bound for a live node, and its budget caps
        the round counter.  The result then also carries the fault
        accounting fields of :class:`RunResult`.  Without a plan the hook
        costs one flag test per broadcast and per unicast.

        When an observability collector is installed
        (:func:`repro.obs.observed`), every execution is reported to it,
        and a tracer is created automatically when the collector samples
        rounds.  With no collector installed (the default) this costs one
        module-global ``is None`` check and the run is bit-identical to
        the uninstrumented engine.
        """
        observer = _obs.ACTIVE
        own_tracer = None
        if observer is not None and tracer is None and observer.sample_rounds:
            tracer = own_tracer = observer.new_tracer()

        n = self.n
        nodes = self.nodes
        adjacency = self.adjacency
        for node in nodes:
            node.reset()

        api = Api(self)
        outbox = api._outbox
        api_alarms = api._alarms
        alarms: list[tuple[int, int]] = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        validate = self._validate_sends
        track = measure_bandwidth or bandwidth_limit is not None
        wake = getattr(algorithm, "wake_on_messages", True)

        # Per-node inbox buffers, preallocated once.  A node's buffer is
        # handed to its callback and *replaced* (never cleared in place),
        # so an algorithm may keep a reference to its inbox safely.
        inboxes: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
        halted = bytearray(n)
        halted_count = 0

        messages_sent = 0
        max_words = 0
        total_words = 0

        # Fault hook.  ``round_cap`` folds the plan's budget into the
        # max_rounds check, so the fault-free loop pays nothing per round.
        faulty = faults is not None and not faults.is_noop
        round_cap = max_rounds
        budget = None
        dropped = 0
        if faulty:
            crash_round = faults.crash_rounds(n)
            drop_p = faults.drop_probability
            drop_roll = faults.drop_stream()
            budget = faults.round_budget
            if budget is not None:
                round_cap = min(max_rounds, budget)

            def lost(dst: int, next_round: int) -> bool:
                """Crash gate, then drop roll, for one copy to a live node.

                A crashed destination consumes no roll, so the seeded
                stream is drawn in delivery order over live targets only.
                """
                nonlocal dropped
                if crash_round[dst] <= next_round or (
                    drop_roll is not None and drop_roll() < drop_p
                ):
                    dropped += 1
                    return True
                return False

        def flush_outbox(next_round: int) -> list[int]:
            """Deliver the outbox; return the indices that got messages."""
            nonlocal messages_sent, max_words, total_words
            receivers: list[int] = []
            append_receiver = receivers.append
            for dst, src, payload in outbox:
                if dst == BROADCAST:
                    # Broadcast targets are exactly the sender's neighbor
                    # list, so send validation holds by construction and
                    # a single (src, payload) pair is shared by all
                    # copies (payload objects were always shared).
                    targets = adjacency[src]
                    copies = len(targets)
                    if not copies:
                        continue
                    messages_sent += copies
                    if track:
                        words = message_words(payload)
                        total_words += words * copies
                        if words > max_words:
                            max_words = words
                        if bandwidth_limit is not None and words > bandwidth_limit:
                            raise SimulationError(
                                f"{algorithm.name}: message of {words} words "
                                f"from {src} exceeds the CONGEST limit of "
                                f"{bandwidth_limit}"
                            )
                    pair = (src, payload)
                    if faulty:
                        # Filtered up front, in delivery order, so the
                        # fault-free loop below pays nothing per copy.
                        targets = [
                            nbr for nbr in targets
                            if halted[nbr] or not lost(nbr, next_round)
                        ]
                    for nbr in targets:
                        # Messages to halted nodes can never influence any
                        # output, so they are dropped eagerly; this keeps
                        # the reported round count equal to the round in
                        # which the last output was fixed.
                        if halted[nbr]:
                            continue
                        box = inboxes[nbr]
                        if not box:
                            append_receiver(nbr)
                        box.append(pair)
                else:
                    if validate and dst not in adjacency[src]:
                        raise SimulationError(
                            f"{algorithm.name}: node {src} sent to "
                            f"non-neighbor {dst}"
                        )
                    messages_sent += 1
                    if track:
                        words = message_words(payload)
                        total_words += words
                        if words > max_words:
                            max_words = words
                        if bandwidth_limit is not None and words > bandwidth_limit:
                            raise SimulationError(
                                f"{algorithm.name}: message of {words} words "
                                f"from {src} exceeds the CONGEST limit of "
                                f"{bandwidth_limit}"
                            )
                    if halted[dst]:
                        continue
                    if faulty and lost(dst, next_round):
                        continue
                    box = inboxes[dst]
                    if not box:
                        append_receiver(dst)
                    box.append((src, payload))
            outbox.clear()
            for item in api_alarms:
                heappush(alarms, item)
            api_alarms.clear()
            # A sleeping receiver keeps its inbox until its next alarm.
            return receivers if wake else []

        # Round 0: initialization.  Dead-on-arrival nodes never start.
        api.round = 0
        for node in nodes:
            if faulty and crash_round[node.index] <= 0:
                continue
            api._node = node
            algorithm.on_start(node, api)
            if node.halted:
                halted[node.index] = 1
                halted_count += 1
        pending = flush_outbox(1)

        rnd = 0
        last_activity_round = 0
        budget_exhausted = False
        empty: tuple = ()
        while pending or alarms:
            if pending:
                rnd += 1
            else:
                # Fast-forward to the next alarm; those quiet rounds elapse.
                rnd = max(rnd + 1, alarms[0][0])
            if rnd > round_cap:
                if budget is not None and rnd > budget:
                    # The plan's budget cuts the run off: report the
                    # rounds survived, not an error.
                    budget_exhausted = True
                    last_activity_round = budget
                    break
                raise RoundLimitExceeded(
                    f"{algorithm.name} exceeded {max_rounds} rounds on {self.name}"
                )
            # Every node in ``pending`` is live this round: copies to a
            # node crashing by now were lost at delivery, so only alarms
            # need the crash gate.
            due = pending
            if alarms and alarms[0][0] <= rnd:
                stamped: set[int] = set()
                while alarms and alarms[0][0] <= rnd:
                    index = heappop(alarms)[1]
                    if halted[index] or index in stamped:
                        continue
                    if faulty and crash_round[index] <= rnd:
                        continue
                    stamped.add(index)
                    if not wake or not inboxes[index]:
                        due.append(index)
            if not due:
                continue
            due.sort()
            api.round = rnd
            scheduled = 0
            delivered = (
                sum(len(inboxes[index]) for index in due)
                if tracer is not None
                else 0
            )
            for index in due:
                if halted[index]:
                    continue
                node = nodes[index]
                api._node = node
                box = inboxes[index]
                if box:
                    inboxes[index] = []
                    algorithm.on_round(node, api, box)
                else:
                    algorithm.on_round(node, api, empty)
                scheduled += 1
                if node.halted:
                    halted[index] = 1
                    halted_count += 1
            if tracer is not None:
                tracer.record(rnd, scheduled, delivered, halted_count)
            pending = flush_outbox(rnd + 1)
            last_activity_round = rnd

        result = RunResult(
            rounds=last_activity_round,
            messages=messages_sent,
            outputs=[node.output for node in nodes],
            halted=[node.halted for node in nodes],
            max_message_words=max_words,
            total_message_words=total_words,
            dropped_messages=dropped,
            crashed_nodes=[
                index
                for index in range(n)
                if crash_round[index] <= last_activity_round
            ] if faulty else [],
            budget_exhausted=budget_exhausted,
        )
        if observer is not None:
            observer.record_run(
                self.name,
                algorithm.name,
                result,
                own_tracer.samples if own_tracer is not None else None,
            )
        return result
