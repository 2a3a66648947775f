"""Fan-out and fan-in trees of SPL/CB cells.

RSFQ outputs drive exactly one wire, so distributing one pulse to ``n``
destinations requires a tree of splitters, and merging ``n`` sources onto
one line requires a tree of confluence buffers (paper Fig. 11 builds entire
tree networks from these).  These helpers build balanced binary trees and
are used for the NPE control buses, the mesh row/column lines, and the tree
network.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.rsfq import library
from repro.rsfq.netlist import Netlist

#: (cell, port) endpoint.
Endpoint = Tuple[object, str]


def fanout_tree(
    net: Netlist,
    name: str,
    n: int,
    wire_delay: float = 1.0,
) -> Tuple[Endpoint, List[Endpoint]]:
    """Build an SPL tree duplicating one input pulse onto ``n`` outputs.

    Returns ``(input_endpoint, output_endpoints)`` where each endpoint is a
    ``(cell, port)`` pair.  For ``n == 1`` a JTL passthrough is used.
    """
    if n < 1:
        raise ConfigurationError("fanout_tree needs n >= 1")
    if n == 1:
        jtl = net.add(library.JTL(f"{name}.thru"))
        return (jtl, "din"), [(jtl, "dout")]
    spl = net.add(library.SPL(f"{name}.spl"))
    left_n = (n + 1) // 2
    right_n = n - left_n
    outputs: List[Endpoint] = []
    for side, port, count in (("l", "doutA", left_n), ("r", "doutB", right_n)):
        if count == 1:
            outputs.append((spl, port))
        else:
            sub_in, sub_outs = fanout_tree(
                net, f"{name}.{side}", count, wire_delay
            )
            net.connect(spl, port, sub_in[0], sub_in[1], delay=wire_delay)
            outputs.extend(sub_outs)
    return (spl, "din"), outputs


def merge_tree(
    net: Netlist,
    name: str,
    n: int,
    wire_delay: float = 1.0,
) -> Tuple[List[Endpoint], Endpoint]:
    """Build a CB tree merging ``n`` input lines onto one output.

    Returns ``(input_endpoints, output_endpoint)``.  For ``n == 1`` a JTL
    passthrough is used.
    """
    if n < 1:
        raise ConfigurationError("merge_tree needs n >= 1")
    if n == 1:
        jtl = net.add(library.JTL(f"{name}.thru"))
        return [(jtl, "din")], (jtl, "dout")
    cb = net.add(library.CB(f"{name}.cb"))
    left_n = (n + 1) // 2
    right_n = n - left_n
    inputs: List[Endpoint] = []
    for side, port, count in (("l", "dinA", left_n), ("r", "dinB", right_n)):
        if count == 1:
            inputs.append((cb, port))
        else:
            sub_ins, sub_out = merge_tree(
                net, f"{name}.{side}", count, wire_delay
            )
            net.connect(sub_out[0], sub_out[1], cb, port, delay=wire_delay)
            inputs.extend(sub_ins)
    return inputs, (cb, "dout")


def fanout_tree_cost(n: int) -> dict:
    """Cell histogram of an ``n``-leaf fan-out tree (resource model)."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if n == 1:
        return {"JTL": 1}
    return {"SPL": n - 1}


def merge_tree_cost(n: int) -> dict:
    """Cell histogram of an ``n``-source merge tree (resource model)."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if n == 1:
        return {"JTL": 1}
    return {"CB": n - 1}
