"""Fixture: fault-injected engine run result discarded (LED001).

A run under a fault plan goes through the same ``Network.run`` entry
point and produces a RunResult like any other; discarding it loses the
simulated rounds before any ledger can account for them.
"""


def chaos_probe(network, algorithm, plan):
    network.run(algorithm, faults=plan)
    return True
