"""Fixture: violations silenced by inline pragmas."""

import time


def stamped():
    return time.time()  # repro: lint-exempt[DET003] -- fixture: doc example

def tagged(tags):
    labels = {str(t) for t in tags}
    # repro: lint-exempt[DET002] -- consumed order-free two lines down
    collected = [label for label in labels]
    return set(collected)
