"""Using the simulator as a library: write and cost your own algorithm.

The LOCAL engine underneath the Delta-coloring stack is general: this
example implements a classic textbook algorithm — synchronous leader
election by minimum-uid flooding — from scratch, runs it, and inspects
rounds, messages, and the per-round activity trace.

Run:  python examples/write_your_own_algorithm.py
"""

from __future__ import annotations

from repro import Network, generators
from repro.local import DistributedAlgorithm, Tracer


class MinUidLeaderElection(DistributedAlgorithm):
    """Every node learns the minimum uid in its component.

    Each node floods the smallest uid it has seen; quiescence implies
    agreement.  Termination detection is the textbook simplification:
    nodes know the graph diameter bound and set an alarm for it.
    """

    name = "leader-election"

    def __init__(self, diameter_bound: int):
        self.diameter_bound = diameter_bound

    def on_start(self, node, api):
        node.state["best"] = node.uid
        api.broadcast(node.uid)
        api.set_alarm(self.diameter_bound + 1)

    def on_round(self, node, api, inbox):
        best = node.state["best"]
        improved = False
        for _, uid in inbox:
            if uid < best:
                best = uid
                improved = True
        node.state["best"] = best
        if improved:
            api.broadcast(best)
        if api.round > self.diameter_bound:
            api.halt(best)
        else:
            api.set_alarm(api.round + 1)


def main() -> None:
    instance = generators.hard_clique_graph(num_cliques=34, delta=16, seed=4)
    network = instance.network

    tracer = Tracer()
    result = network.run(MinUidLeaderElection(diameter_bound=12), tracer=tracer)
    leaders = set(result.outputs)
    print(f"n = {network.n}, every node agreed on leader uid "
          f"{leaders} (consensus: {len(leaders) == 1})")
    print(f"rounds: {result.rounds}, messages: {result.messages}")
    print(f"activity: executed {tracer.executed_rounds} busy rounds, "
          f"peak {tracer.peak_scheduled} nodes in one round, "
          f"{tracer.quiet_fraction(result.rounds):.0%} quiet")


if __name__ == "__main__":
    main()
